package curp

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"curp/internal/addrbook"
	"curp/internal/shard"
	"curp/internal/transport"
)

// healOptions is a 2-shard self-healing deployment with a trace threshold:
// the settings every node — boot-time, spare or promoted — must be born
// with. The detector deadline is generous — far above race-build GC
// stalls and a loaded CI box's scheduling gaps — so no healthy node is
// falsely replaced and the spare slots are handed out in the order the
// test crashes nodes.
func healOptions() Options {
	return Options{
		Shards:            2,
		F:                 2,
		SelfHealing:       true,
		HeartbeatInterval: 5 * time.Millisecond,
		FailoverAfter:     300 * time.Millisecond,
		TraceThreshold:    time.Millisecond,
	}
}

// crashAndHealShard1 crashes shard 1's master, waits for the promotion,
// then crashes one of its witnesses and waits for the replacement. It
// returns the promoted master's and the replacement witness's addresses.
func crashAndHealShard1(t *testing.T, dep *shard.Cluster) (master, witness string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	part := dep.Part(1)
	oldMaster := part.CurrentMaster().Addr()
	dep.CrashMaster(1)
	if err := dep.WaitHealthy(ctx); err != nil {
		t.Fatalf("master failover: %v", err)
	}
	if master = part.CurrentMaster().Addr(); master == oldMaster {
		t.Fatalf("shard 1 master %s was not replaced", oldMaster)
	}
	before := map[string]bool{}
	for _, w := range part.WitnessServers() {
		before[w.Addr()] = true
	}
	dep.CrashWitness(1, 0)
	if err := dep.WaitHealthy(ctx); err != nil {
		t.Fatalf("witness replacement: %v", err)
	}
	for _, w := range part.WitnessServers() {
		if !before[w.Addr()] {
			witness = w.Addr()
		}
	}
	if witness == "" {
		t.Fatal("shard 1 got no replacement witness")
	}
	return master, witness
}

// checkNodeStamps asserts that every bundle Nodes() returns — coordinator,
// (promoted) master, backups, surviving and replacement witnesses — stamps
// its own shard on spans, events and hot keys and carries the deployment's
// trace threshold.
func checkNodeStamps(t *testing.T, dep *shard.Cluster, threshold time.Duration) {
	t.Helper()
	for s, part := range dep.Partitions() {
		roles := map[string]int{}
		for _, b := range part.Nodes() {
			roles[b.Role]++
			if got := b.Trace.Dump().Shard; got != s {
				t.Errorf("shard %d %s %s: spans stamped shard %d", s, b.Role, b.Node, got)
			}
			if got := b.Events.Dump().Shard; got != s {
				t.Errorf("shard %d %s %s: events stamped shard %d", s, b.Role, b.Node, got)
			}
			if got := b.Trace.Threshold(); got != threshold {
				t.Errorf("shard %d %s %s: trace threshold %v, want %v", s, b.Role, b.Node, got, threshold)
			}
			if (b.HotKeys != nil) != (b.Role == "master") {
				t.Errorf("shard %d %s %s: hot-key sketch present = %v", s, b.Role, b.Node, b.HotKeys != nil)
			} else if b.HotKeys != nil && b.HotKeys.Dump().Shard != s {
				t.Errorf("shard %d master %s: hot keys stamped shard %d", s, b.Node, b.HotKeys.Dump().Shard)
			}
		}
		if roles["coordinator"] != 1 || roles["master"] != 1 || roles["backup"] != 2 || roles["witness"] != 2 {
			t.Errorf("shard %d: Nodes() roles = %v", s, roles)
		}
	}
}

// TestEveryNodeIsBornWithDeploymentSettings: in an in-memory sharded
// deployment every node, including a heal-promoted master and a spare
// witness, carries its shard index and the configured trace threshold —
// and ShardedCluster serves /trace, /events and /hotkeys over them.
func TestEveryNodeIsBornWithDeploymentSettings(t *testing.T) {
	opts := healOptions()
	c, err := StartSharded(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	crashAndHealShard1(t, c.inner)
	checkNodeStamps(t, c.inner, opts.TraceThreshold)
	for _, path := range []string{"/trace", "/events", "/hotkeys"} {
		rec := httptest.NewRecorder()
		c.NodeHandler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		var docs []struct {
			Shard int `json:"shard"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &docs); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		perShard := map[int]int{}
		for _, d := range docs {
			perShard[d.Shard]++
		}
		if perShard[0] == 0 || perShard[0] != perShard[1] || len(perShard) != 2 {
			t.Errorf("%s: documents per shard = %v", path, perShard)
		}
	}
}

// TestAddressBookAssembly is cmd/curpd's assembly without a socket: the
// same partitions placed by addrbook.Book on the in-memory network (which
// takes any string as an address). Every node sits in its slot of the port
// layout, spares take the spare slots in one shared sequence, and the
// deployment settings reach all of them.
func TestAddressBookAssembly(t *testing.T) {
	opts := healOptions()
	book := addrbook.Book{Host: "h", Port: 7000}
	dep, err := shard.StartCluster(transport.NewMemNetwork(nil), shard.Options{
		Shards:    opts.Shards,
		Partition: clusterOptions(opts),
		Addrs:     book.RPC,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	for s, part := range dep.Partitions() {
		if got, want := part.Coord.Addr(), book.RPC(s, addrbook.Coordinator, 0); got != want {
			t.Errorf("shard %d coordinator at %s, want %s", s, got, want)
		}
		if got, want := part.CurrentMaster().Addr(), book.RPC(s, addrbook.Master, 0); got != want {
			t.Errorf("shard %d master at %s, want %s", s, got, want)
		}
		for i := 0; i < opts.F; i++ {
			if got, want := part.Backups[i].Addr(), book.RPC(s, addrbook.Backup, i); got != want {
				t.Errorf("shard %d backup %d at %s, want %s", s, i, got, want)
			}
			if got, want := part.Witnesses[i].Addr(), book.RPC(s, addrbook.Witness, i); got != want {
				t.Errorf("shard %d witness %d at %s, want %s", s, i, got, want)
			}
		}
	}
	master, witness := crashAndHealShard1(t, dep)
	if want := book.RPC(1, addrbook.Spare, 1); master != want {
		t.Errorf("promoted master at %s, want %s", master, want)
	}
	if want := book.RPC(1, addrbook.SpareWitness, 2); witness != want {
		t.Errorf("replacement witness at %s, want %s", witness, want)
	}
	checkNodeStamps(t, dep, opts.TraceThreshold)
}
