package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"curp/internal/core"
	"curp/internal/events"
	"curp/internal/kv"
	"curp/internal/race"
	"curp/internal/rifl"
	"curp/internal/rpc"
	"curp/internal/transport"
)

// meteredNet is a MemNetwork whose every frame passes a hook first: the
// tests here measure frames (no state in one frame) and cut links at an
// exact point of a transfer (the n-th chunk) instead of at a sleep's end.
type meteredNet struct {
	*transport.MemNetwork
	// hook sees (writer host, reader host, frame bytes) before the frame is
	// sent; it may change the network. Replaceable while the cluster runs.
	hook atomic.Pointer[func(from, to string, n int)]
}

func newMeteredNet() *meteredNet {
	return &meteredNet{MemNetwork: transport.NewMemNetwork(nil)}
}

func (m *meteredNet) onWrite(f func(from, to string, n int)) { m.hook.Store(&f) }

func (m *meteredNet) Dial(from, addr string) (net.Conn, error) {
	c, err := m.MemNetwork.Dial(from, addr)
	if err != nil {
		return nil, err
	}
	return meteredConn{c, m}, nil
}

func (m *meteredNet) Listen(addr string) (net.Listener, error) {
	l, err := m.MemNetwork.Listen(addr)
	if err != nil {
		return nil, err
	}
	return meteredListener{l, m}, nil
}

type meteredListener struct {
	net.Listener
	m *meteredNet
}

func (l meteredListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return meteredConn{c, l.m}, nil
}

type meteredConn struct {
	net.Conn
	m *meteredNet
}

func (c meteredConn) Write(b []byte) (int, error) {
	if h := c.m.hook.Load(); h != nil {
		(*h)(c.LocalAddr().String(), c.RemoteAddr().String(), len(b))
	}
	return c.Conn.Write(b)
}

// chunkFrame is the smallest frame the tests below count as a state chunk:
// their values are 64–128 KB, so a chunk reply is far above it and every
// control message far below.
const chunkFrame = 32 << 10

// frameCeiling is the largest frame a state transfer may put on the wire:
// the chunk budget plus the RPC frame header (length, request ID, kind,
// code) and a trace context.
const frameCeiling = transferChunkBytes + 4 + 11 + 17

// bigValue is a deterministic 64–128 KB value for (key, generation).
func bigValue(i, gen int) []byte {
	n := 64<<10 + (i*7919)%(64<<10)
	v := bytes.Repeat([]byte{byte('a' + (i+gen)%26)}, n)
	copy(v, fmt.Sprintf("big-%d-gen-%d|", i, gen))
	return v
}

// twoFrames is how many 64–128 KB values make a partition state of more
// than 2 × rpc.MaxFrameSize; tenChunks a state of some ten chunks, for the
// tests that cut a transfer and need no more than that.
const (
	twoFrames = 360
	tenChunks = 100
)

// loadBigState writes bigKeys values of 64–128 KB through cl: every fifth
// overwritten (a version above 1), every seventh with a TTL far in the
// future, the last five deleted (tombstones). It returns the number of
// bytes stored.
func loadBigState(t *testing.T, cl *Client, bigKeys int) int {
	t.Helper()
	ctx := context.Background()
	total := 0
	for i := 0; i < bigKeys; i++ {
		key := []byte(fmt.Sprintf("big-%04d", i))
		v := bigValue(i, 0)
		var err error
		switch {
		case i%7 == 0:
			_, err = cl.PutTTL(ctx, key, v, time.Now().Add(24*time.Hour).UnixNano()+int64(i))
		default:
			_, err = cl.Put(ctx, key, v)
		}
		if err == nil && i%5 == 0 {
			v = bigValue(i, 1)
			_, err = cl.Put(ctx, key, v)
		}
		if err != nil {
			t.Fatalf("load %s: %v", key, err)
		}
		total += len(v)
	}
	for i := 0; i < 5; i++ {
		if err := cl.Delete(ctx, []byte(fmt.Sprintf("big-%04d", bigKeys-1-i))); err != nil {
			t.Fatal(err)
		}
	}
	if bigKeys == twoFrames && total < 2*rpc.MaxFrameSize {
		t.Fatalf("loaded %d bytes, want more than two frames (%d)", total, 2*rpc.MaxFrameSize)
	}
	return total
}

// objectsOf returns a replica's objects in transfer order: key, value,
// version, tombstone, TTL.
func objectsOf(snap kv.Snapshot) []kv.MigratedObject {
	kv.SortByKeyHash(snap.Objects)
	return snap.Objects
}

// settle makes everything the master executed durable and waits out the
// sync's gc tail, so witnesses hold nothing and every backup is at the head.
func settle(t *testing.T, ms *MasterServer) {
	t.Helper()
	if err := ms.eng.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := ms.eng.HoldSync(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
}

// recoveryInvariants is the safety argument of "state, not history",
// stated once and checked by every crash test in this file at the points
// where the test can look.
type recoveryInvariants struct {
	t *testing.T
	c *Cluster
}

// truncation checks invariant (i): the master's log never lost an entry
// above what its backups acknowledged — its base is at or below the synced
// LSN and it holds exactly the entries from there to the head.
//
// PAPER §3.2: an unsynced operation lives in the master's log and on the
// witnesses only.
func (iv recoveryInvariants) truncation(ms *MasterServer) {
	iv.t.Helper()
	st := ms.Store()
	base, head, synced := st.Base(), st.Head(), kv.LSN(ms.State().SyncedLSN())
	if base > synced {
		iv.t.Errorf("invariant (i): log truncated to %d past synced %d", base, synced)
	}
	if kv.LSN(st.LogLen()) != head-base {
		iv.t.Errorf("invariant (i): log holds %d entries for (%d, %d]", st.LogLen(), base, head)
	}
}

// completions checks invariant (ii) for one client on every backup: no
// record below the backup's watermark for the client, the watermark never
// ahead of what the client itself acknowledged, and — once everything is
// synced — a record for each operation from seq on that the client has not
// acknowledged.
//
// PAPER §4.8: completion records leave by client ack or lease expiry only.
func (iv recoveryInvariants) completions(sess *rifl.Session, upTo rifl.Seq) {
	iv.t.Helper()
	for _, b := range iv.c.BackupServers() {
		snap := b.Replica(1).Snapshot()
		var mark rifl.ClientMark
		for _, m := range snap.Clients {
			if m.Client == sess.ClientID() {
				mark = m
			}
		}
		if mark.FirstUnacked > sess.Ack() {
			iv.t.Errorf("invariant (ii): backup %s dropped records below %d, the client acknowledged only below %d", b.Addr(), mark.FirstUnacked, sess.Ack())
		}
		have := map[rifl.Seq]bool{}
		for _, c := range snap.Completions {
			if c.ID.Client != sess.ClientID() {
				continue
			}
			if c.ID.Seq < mark.FirstUnacked {
				iv.t.Errorf("invariant (ii): backup %s holds record %v below its watermark %d", b.Addr(), c.ID, mark.FirstUnacked)
			}
			have[c.ID.Seq] = true
		}
		for s := sess.Ack(); s <= upTo; s++ {
			if !have[s] {
				iv.t.Errorf("invariant (ii): backup %s lost the record of unacknowledged operation %d.%d", b.Addr(), sess.ClientID(), s)
			}
		}
	}
}

// ledger is what a test's clients were told: the last acknowledged value
// of each key they wrote and the acknowledged increments of each counter.
type ledger struct {
	mu       sync.Mutex
	values   map[string]string
	counters map[string]int64
	// unsure counts increments whose call failed: each may or may not have
	// been applied (once).
	unsure map[string]int64
}

func newLedger() *ledger {
	return &ledger{values: map[string]string{}, counters: map[string]int64{}, unsure: map[string]int64{}}
}

func (l *ledger) wrote(key, value string) {
	l.mu.Lock()
	l.values[key] = value
	l.mu.Unlock()
}

func (l *ledger) incremented(key string, err error) {
	l.mu.Lock()
	if err == nil {
		l.counters[key]++
	} else {
		l.unsure[key]++
	}
	l.mu.Unlock()
}

// acknowledged checks invariant (iii) through a client: every acknowledged
// write is readable and every counter equals its acknowledged increments —
// each applied exactly once — plus at most the ones whose outcome the
// client never learned.
//
// PAPER §3.2 (durability of completed operations), §3.3 + §4.8 (RIFL
// filters the replayed duplicates).
func (iv recoveryInvariants) acknowledged(cl *Client, l *ledger) {
	iv.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	l.mu.Lock()
	defer l.mu.Unlock()
	for k, want := range l.values {
		v, ok, err := cl.Get(ctx, []byte(k))
		if err != nil || !ok || string(v) != want {
			iv.t.Errorf("invariant (iii): acknowledged write %s=%q reads back %q (found %v, err %v)", k, want, v, ok, err)
		}
	}
	for k, n := range l.counters {
		v, _, err := cl.Get(ctx, []byte(k))
		var got int64
		fmt.Sscan(string(v), &got)
		if err != nil || got < n || got > n+l.unsure[k] {
			iv.t.Errorf("invariant (iii): counter %s = %d after %d acknowledged (+ %d unsure) increments (err %v)", k, got, n, l.unsure[k], err)
		}
	}
}

// completeCopies counts the backups whose replica holds every acknowledged
// write of l: invariant (iv) is that a recovery, failed or not, never
// leaves fewer of them than it found.
//
// PAPER §3.3: the backups are what survives f failures; a recovery that
// empties them before its own state is durable spends that budget itself.
func (iv recoveryInvariants) completeCopies(l *ledger) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, b := range iv.c.BackupServers() {
		complete := true
		replica := b.Replica(1)
		for k, want := range l.values {
			res, err := replica.Read(&kv.Command{Op: kv.OpGet, Key: []byte(k)})
			if err != nil || !res.Found || string(res.Value) != want {
				complete = false
				break
			}
		}
		if complete {
			n++
		}
	}
	return n
}

// transferEvents returns the state-transfer-done events a node journaled.
func transferEvents(j *events.Journal) []events.Event {
	var out []events.Event
	for _, ev := range j.Dump().Events {
		if ev.Kind == events.KindStateTransferDone {
			out = append(out, ev)
		}
	}
	return out
}

// rawUpdate sends one update under a RIFL ID of the test's choosing
// straight to a master, the way a retrying client would, and returns the
// decoded result.
func rawUpdate(t *testing.T, nw transport.Network, ms *MasterServer, id rifl.RPCID, cmd kv.Command) *kv.Result {
	t.Helper()
	req := core.Request{
		ID: id, WitnessListVersion: ms.State().WitnessListVersion(),
		KeyHashes: cmd.KeyHashes(), Payload: cmd.Encode(), Class: cmd.Class(),
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := dialCall(ctx, nw, "raw-client", ms.Addr(), 10*time.Second, OpUpdate, req.Encode())
	if err != nil {
		t.Fatal(err)
	}
	reply, err := core.DecodeReply(out)
	if err != nil || reply.Status != core.StatusOK {
		t.Fatalf("raw update %v: %+v, %v", id, reply, err)
	}
	res, err := kv.DecodeResult(reply.Payload)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// forgetfulSink drops every job its source holds after the first chunk it
// installs, once: the source "restarted" mid-transfer.
type forgetfulSink struct {
	backupSink
	src    *transferSource
	forgot *atomic.Bool
}

func (s *forgetfulSink) install(chunk *stateImage) error {
	if s.forgot.CompareAndSwap(false, true) {
		s.src.mu.Lock()
		var ids []uint64
		for id := range s.src.jobs {
			ids = append(ids, id)
		}
		s.src.mu.Unlock()
		for _, id := range ids {
			s.src.release(id)
		}
	}
	return s.backupSink.install(chunk)
}

// TestPullRestartsWhenSourceLostJob is the primitive by itself: a source
// that no longer knows a job says so and the receiver starts over with a
// clean replica under a new job; and two receivers pulling from one source
// at once, each under its own job, both end with the source's state.
func TestPullRestartsWhenSourceLostJob(t *testing.T) {
	nw := transport.NewMemNetwork(nil)
	src, err := NewBackupServer(nw, "source")
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	replica := src.Replica(7)
	var entries []kv.Entry
	for i := 1; i <= 5; i++ {
		cmd := kv.Put([]byte(fmt.Sprint("k", i)), bytes.Repeat([]byte{byte(i)}, 600<<10))
		entries = append(entries, kv.Entry{LSN: kv.LSN(i), Cmd: &cmd, ID: rifl.RPCID{Client: 3, Seq: rifl.Seq(i)}, Result: &kv.Result{Found: true, Version: 1}})
	}
	if err := replica.Append(entries); err != nil {
		t.Fatal(err)
	}
	want := objectsOf(replica.Snapshot())

	var forgot atomic.Bool
	p := rpc.NewPeer(nw, "receiver", "source")
	defer p.Close()
	jrn := events.NewJournal("receiver", "backup")
	sink, stats, err := pullState(context.Background(), p, 7, func() *forgetfulSink {
		return &forgetfulSink{backupSink{replica: kv.NewBackup()}, &src.transfers, &forgot}
	}, jrn)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Restarts != 1 || stats.Chunks < 3 || stats.LSN != 5 {
		t.Fatalf("stats = %+v, want one restart and the whole state", stats)
	}
	if got := objectsOf(sink.replica.Snapshot()); !reflect.DeepEqual(got, want) || sink.replica.CompletionRecords() != 5 {
		t.Fatalf("restarted pull ended with %d objects, %d records", len(got), sink.replica.CompletionRecords())
	}
	if done := transferEvents(jrn); len(done) != 1 || !strings.Contains(done[0].Detail, "restarted 1×") {
		t.Fatalf("journal: %+v", done)
	}

	var wg sync.WaitGroup
	jobs := make([]uint64, 2)
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := rpc.NewPeer(nw, fmt.Sprint("receiver-", i), "source")
			defer p.Close()
			sink, stats, err := pullState(context.Background(), p, 7, func() *backupSink { return &backupSink{replica: kv.NewBackup()} }, nil)
			if err != nil || !reflect.DeepEqual(objectsOf(sink.replica.Snapshot()), want) {
				t.Errorf("concurrent pull %d: %+v, %v", i, stats, err)
			}
			jobs[i] = stats.Job
		}()
	}
	wg.Wait()
	if jobs[0] == jobs[1] {
		t.Fatalf("two receivers drew the same job %x", jobs[0])
	}
	src.transfers.mu.Lock()
	left := len(src.transfers.jobs)
	src.transfers.mu.Unlock()
	if left != 0 {
		t.Fatalf("source still holds %d jobs after every transfer completed", left)
	}
}

// TestLargeStateRecovery: a partition whose live state is more than two RPC
// frames recovers its master — impossible while recovery shipped a log in
// one frame. Every key, version, tombstone and TTL comes back on the master
// and on every re-seeded backup, an increment retried across the recovery
// returns its original total, and no frame of the recovery is larger than
// one chunk.
func TestLargeStateRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("writes 40 MB through an F=2 partition")
	}
	nw := newMeteredNet()
	opts := testOptions()
	opts.F = 2
	c, err := Start(nw, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	cl := testClient(t, c, "big-client")
	stored := loadBigState(t, cl, twoFrames)

	// An increment under a RIFL ID the test keeps, synced before the crash.
	retried := rifl.RPCID{Client: 1 << 40, Seq: 1}
	if res := rawUpdate(t, nw, c.Master, retried, kv.Increment([]byte("ctr"), 5)); string(res.Value) != "5" {
		t.Fatalf("increment returned %q", res.Value)
	}
	settle(t, c.Master)
	want := objectsOf(c.Master.Store().Snapshot())
	iv := recoveryInvariants{t, c}
	iv.truncation(c.Master)
	if n := c.Master.Store().LogLen(); n != 0 {
		t.Fatalf("a fully synced master still holds %d log entries", n)
	}

	var maxFrame, chunks atomic.Int64
	nw.onWrite(func(from, to string, n int) {
		if int64(n) > maxFrame.Load() {
			maxFrame.Store(int64(n))
		}
		if n >= chunkFrame {
			chunks.Add(1)
		}
	})
	nw.CrashHost(c.Master.Addr())
	c.CrashMaster()
	nm, err := c.Recover("master2")
	if err != nil {
		t.Fatal(err)
	}
	nw.onWrite(func(string, string, int) {})

	if got := maxFrame.Load(); got > frameCeiling {
		t.Errorf("a recovery frame of %d bytes: the chunk budget plus header is %d", got, frameCeiling)
	}
	// One pull by the master and one by each of the two backups, each
	// stored/budget chunks or so: the state crossed the wire three times,
	// in pieces.
	if least := int64(3 * stored / transferChunkBytes); chunks.Load() < least {
		t.Errorf("%d chunk frames for three transfers of %d bytes, want at least %d", chunks.Load(), stored, least)
	}
	t.Logf("recovered %d bytes of state: %d chunk frames, largest frame %d bytes (ceiling %d)", stored, chunks.Load(), maxFrame.Load(), frameCeiling)

	if got := objectsOf(nm.Store().Snapshot()); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered master holds %d objects that differ from the %d before the crash", len(got), len(want))
	}
	for _, b := range c.BackupServers() {
		if got := objectsOf(b.Replica(1).Snapshot()); !reflect.DeepEqual(got, want) {
			t.Errorf("re-seeded backup %s differs from the state before the crash", b.Addr())
		}
		if b.SyncedLSN(1) != nm.Store().Head() {
			t.Errorf("backup %s at lsn %d, master at %d", b.Addr(), b.SyncedLSN(1), nm.Store().Head())
		}
	}
	// Read a sample back through the client, TTL'd and overwritten keys
	// included.
	ctx := context.Background()
	for _, i := range []int{0, 5, 7, 35, 199} {
		v, ok, err := cl.Get(ctx, []byte(fmt.Sprintf("big-%04d", i)))
		gen := 0
		if i%5 == 0 {
			gen = 1
		}
		if err != nil || !ok || !bytes.Equal(v, bigValue(i, gen)) {
			t.Errorf("big-%04d after recovery: %d bytes, found %v, err %v", i, len(v), ok, err)
		}
	}
	if _, ok, _ := cl.Get(ctx, []byte("big-0359")); ok {
		t.Error("a deleted key came back")
	}
	// Exactly-once across the recovery: the retry gets the original total.
	if res := rawUpdate(t, nw, nm, retried, kv.Increment([]byte("ctr"), 5)); string(res.Value) != "5" {
		t.Errorf("the retried increment returned %q, want the original total 5", res.Value)
	}
	if v, _, _ := nm.Store().Get([]byte("ctr")); string(v) != "5" {
		t.Errorf("counter = %q after the retry, want 5 (applied once)", v)
	}
	// The journal shows the master's transfer and says what it cost.
	done := transferEvents(nm.Events())
	if len(done) != 1 || !strings.Contains(done[0].Detail, "chunks") || done[0].TraceID == "" {
		t.Errorf("recovering master journaled %+v", done)
	}
	iv.truncation(nm)
}

// TestLargeStateReplaceBackup: ReplaceBackup seeds a fresh backup with a
// state of more than two frames while the partition keeps taking writes.
func TestLargeStateReplaceBackup(t *testing.T) {
	if testing.Short() {
		t.Skip("writes 40 MB through the partition")
	}
	opts := testOptions()
	opts.F = 1
	c, nw := startTestCluster(t, opts)
	cl := testClient(t, c, "big-client")
	loadBigState(t, cl, twoFrames)

	spare, err := NewBackupServer(nw, "backup-spare")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(spare.Close)
	// Writes go on while the seed runs; syncs too (SyncBatchSize writes at
	// a time) — the seed holds neither.
	stop := make(chan struct{})
	var wrote atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	w := testClient(t, c, "writer")
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := w.Put(context.Background(), []byte(fmt.Sprintf("during-%d", i%50)), []byte(fmt.Sprint(i))); err != nil {
				t.Errorf("write during the seed: %v", err)
				return
			}
			wrote.Add(1)
		}
	}()
	if err := c.Coord.ReplaceBackup(1, c.Backups[0].Addr(), spare.Addr()); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	settle(t, c.Master)
	if wrote.Load() == 0 {
		t.Error("no write completed while the backup was being seeded")
	}
	want := objectsOf(c.Master.Store().Snapshot())
	if got := objectsOf(spare.Replica(1).Snapshot()); !reflect.DeepEqual(got, want) {
		t.Fatalf("the seeded backup differs from the master (%d vs %d objects)", len(got), len(want))
	}
	if spare.SyncedLSN(1) != c.Master.Store().Head() {
		t.Fatalf("seeded backup at %d, master at %d", spare.SyncedLSN(1), c.Master.Store().Head())
	}
	iv := recoveryInvariants{t, c}
	iv.truncation(c.Master)
	if n := c.Master.Store().LogLen(); n != 0 {
		t.Errorf("the log still holds %d entries after the seed ended and everything synced", n)
	}
	done := transferEvents(spare.Events())
	if len(done) != 1 {
		t.Fatalf("seeded backup journaled %+v", done)
	}
	t.Logf("seed: %s; %d writes completed meanwhile", done[0].Detail, wrote.Load())
	// The replacement is what a recovery restores from now.
	c.CrashMaster()
	nm, err := c.Recover("master2")
	if err != nil {
		t.Fatal(err)
	}
	if got := objectsOf(nm.Store().Snapshot()); !reflect.DeepEqual(got, want) {
		t.Fatal("a master recovered from the replacement backup differs")
	}
}

// TestLargeStateSelfHealingBackupReplacement: the heal loop replaces a dead
// backup of a partition whose state is more than two frames.
func TestLargeStateSelfHealingBackupReplacement(t *testing.T) {
	if testing.Short() {
		t.Skip("writes 40 MB through an F=2 partition")
	}
	nw := transport.NewMemNetwork(nil)
	var evs eventLog
	opts := healOptions(&evs)
	// Detection must outlast the pauses 40 MB of garbage cause under -race.
	opts.Health.FailAfter = 500 * time.Millisecond
	c, err := Start(nw, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, err := c.NewClient("big-client")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	loadBigState(t, cl, twoFrames)

	dead := c.BackupServers()[0]
	nw.CrashHost(dead.Addr())
	dead.Close()
	waitFor(t, 60*time.Second, func() bool { return evs.count(EventBackupReplaced) > 0 }, "the heal loop to replace the backup")
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := c.WaitHealthy(ctx); err != nil {
		t.Fatal(err)
	}
	ms := c.CurrentMaster()
	settle(t, ms)
	want := objectsOf(ms.Store().Snapshot())
	backups := c.BackupServers()
	if len(backups) != 2 {
		t.Fatalf("%d backups after the heal", len(backups))
	}
	for _, b := range backups {
		if b.Addr() == dead.Addr() {
			t.Fatalf("dead backup %s still listed", dead.Addr())
		}
		if got := objectsOf(b.Replica(1).Snapshot()); !reflect.DeepEqual(got, want) {
			t.Errorf("backup %s differs from the master after the heal", b.Addr())
		}
	}
}

// slowSyncOptions is a partition whose background syncs the test controls:
// nothing is flushed unless an operation conflicts or the test syncs.
func slowSyncOptions(f int) Options {
	opts := testOptions()
	opts.F = f
	opts.Master.Core.SyncBatchSize = 1000
	opts.Master.Core.HotKeyWindow = 0
	return opts
}

// register is one key's history for the Wing & Gong check.
type register struct {
	mu   sync.Mutex
	hist []core.HistOp
}

func (r *register) put(ctx context.Context, cl *Client, key, val string) error {
	start := time.Now().UnixNano()
	_, err := cl.Put(ctx, []byte(key), []byte(val))
	end := time.Now().UnixNano()
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		// It may still have landed (a witness replay): open-ended.
		end = 1 << 62
	}
	r.hist = append(r.hist, core.HistOp{Start: start, End: end, IsWrite: true, Value: val})
	return err
}

func (r *register) get(ctx context.Context, cl *Client, key string) {
	start := time.Now().UnixNano()
	v, _, err := cl.Get(ctx, []byte(key))
	end := time.Now().UnixNano()
	if err != nil {
		return
	}
	r.mu.Lock()
	r.hist = append(r.hist, core.HistOp{Start: start, End: end, Value: string(v)})
	r.mu.Unlock()
}

func (r *register) check(t *testing.T, what string) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.hist) > 63 {
		t.Fatalf("%s: history of %d operations is beyond the checker", what, len(r.hist))
	}
	if !core.CheckLinearizable("", r.hist) {
		t.Fatalf("%s: history not linearizable: %v", what, r.hist)
	}
}

// TestCrashBetweenFlushAndTruncate: the backups hold a sync's entries, the
// master never hears so — it neither counts them synced nor truncates —
// and dies. Recovery restores them from a backup AND finds the same
// operations on the witness; each must be applied once.
func TestCrashBetweenFlushAndTruncate(t *testing.T) {
	c, nw := startTestCluster(t, slowSyncOptions(2))
	cl := testClient(t, c, "client")
	ctx := context.Background()
	iv := recoveryInvariants{t, c}
	l := newLedger()
	var reg register

	for i := 0; i < 5; i++ {
		_, err := cl.Increment(ctx, []byte("ctr"), 1)
		l.incremented("ctr", err)
		if err := reg.put(ctx, cl, "reg", fmt.Sprint("before-", i)); err == nil {
			l.wrote("reg", fmt.Sprint("before-", i))
		}
	}
	// The window the cut is about: completed on the fast path, unsynced.
	for i := 0; i < 3; i++ {
		_, err := cl.Increment(ctx, []byte("ctr"), 1)
		l.incremented("ctr", err)
	}
	synced, head := kv.LSN(c.Master.State().SyncedLSN()), c.Master.Store().Head()
	if head-synced < 3 {
		t.Fatalf("nothing left to flush: synced %d, head %d", synced, head)
	}
	// The appends reach the backups; their acknowledgments do not come back.
	for _, b := range c.Backups {
		nw.Blackhole(b.Addr(), c.Master.Addr())
	}
	flushed := make(chan error, 1)
	go func() { flushed <- c.Master.eng.Sync(ctx) }()
	waitFor(t, 5*time.Second, func() bool {
		return c.Backups[0].SyncedLSN(1) == head && c.Backups[1].SyncedLSN(1) == head
	}, "the flush to reach both backups")
	if n := len(c.Master.Store().EntriesSince(synced)); kv.LSN(n) != head-synced {
		t.Fatalf("master holds %d of the %d entries its backups have not acknowledged", n, head-synced)
	}
	iv.truncation(c.Master)
	c.CrashMaster()
	if err := <-flushed; err == nil {
		t.Fatal("the sync succeeded without an acknowledgment")
	}
	for _, b := range c.Backups {
		nw.Unblackhole(b.Addr(), c.Master.Addr())
	}
	nm, err := c.Recover("master2")
	if err != nil {
		t.Fatal(err)
	}
	reg.get(ctx, cl, "reg")
	iv.acknowledged(cl, l)
	iv.truncation(nm)
	reg.check(t, "crash between flush and truncate")
}

// TestRecoveringMasterDiesBeforeReseedCompletes is the copy-count hazard: a
// recovering master that has pulled the state and replayed a witness dies
// while re-seeding — one backup seeded, one not. Every backup must still
// hold a complete copy, and a second recovery must restore everything.
func TestRecoveringMasterDiesBeforeReseedCompletes(t *testing.T) {
	c, nw := startTestCluster(t, slowSyncOptions(2))
	cl := testClient(t, c, "client")
	ctx := context.Background()
	iv := recoveryInvariants{t, c}
	l := newLedger()
	var reg register

	for i := 0; i < 20; i++ {
		k, v := fmt.Sprint("k", i), fmt.Sprint("v", i)
		if _, err := cl.Put(ctx, []byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		l.wrote(k, v)
	}
	settle(t, c.Master)
	// Completed but unsynced: on the witnesses only.
	for i := 0; i < 3; i++ {
		_, err := cl.Increment(ctx, []byte("ctr"), 1)
		l.incremented("ctr", err)
	}
	if err := reg.put(ctx, cl, "reg", "speculative"); err != nil {
		t.Fatal(err)
	}
	before := iv.completeCopies(l)
	if before != 2 {
		t.Fatalf("%d complete copies before the crash, want 2", before)
	}
	c.CrashMaster()

	// master2 reaches backup1 but not backup2: its pull and its witness
	// replay succeed, backup1's re-seed may, backup2's cannot. The
	// coordinator gives up and closes it: it died mid re-seed.
	nw.Partition("master2", c.Backups[1].Addr())
	if _, err := c.Recover("master2"); err == nil {
		t.Fatal("a recovery that could not re-seed a backup succeeded")
	} else {
		t.Logf("first recovery: %v", err)
	}
	if after := iv.completeCopies(l); after < before {
		t.Fatalf("invariant (iv): the failed recovery left %d complete copies of %d", after, before)
	}
	nw.Heal("master2", c.Backups[1].Addr())

	nm, err := c.Recover("master3")
	if err != nil {
		t.Fatal(err)
	}
	reg.get(ctx, cl, "reg")
	iv.acknowledged(cl, l)
	iv.truncation(nm)
	if after := iv.completeCopies(l); after != 2 {
		t.Fatalf("%d complete copies after the second recovery", after)
	}
	if v, _, _ := nm.Store().Get([]byte("ctr")); string(v) != "3" {
		t.Fatalf("counter = %q after two witness replays, want 3", v)
	}
	reg.check(t, "recovering master killed before its re-seed completed")
}

// TestSourceLostMidPull: the backup a recovering master pulls from goes
// away after a few chunks. The pull's retries fail, the master starts over
// from the next most advanced backup — with a clean slate — and the
// recovery completes.
func TestSourceLostMidPull(t *testing.T) {
	if testing.Short() {
		t.Skip("writes 10 MB through an F=2 partition")
	}
	nw := newMeteredNet()
	opts := testOptions()
	opts.F = 2
	c, err := Start(nw, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	cl := testClient(t, c, "big-client")
	loadBigState(t, cl, tenChunks)
	settle(t, c.Master)
	want := objectsOf(c.Master.Store().Snapshot())

	// Both backups are at the same LSN; the probe order makes backup1 the
	// first source. Cut it off at its fourth chunk, and let it back in when
	// the master turns to backup2 (the re-seed must reach it).
	first, second := c.Backups[0].Addr(), c.Backups[1].Addr()
	var fromFirst, fromSecond atomic.Int64
	nw.onWrite(func(from, to string, n int) {
		switch {
		case from == first && to == "master2" && n >= chunkFrame:
			if fromFirst.Add(1) == 4 {
				nw.Partition(first, "master2")
			}
		case from == "master2" && to == second && fromFirst.Load() >= 4:
			nw.Heal(first, "master2")
		case from == second && to == "master2" && n >= chunkFrame:
			fromSecond.Add(1)
		}
	})
	nw.CrashHost(c.Master.Addr())
	c.CrashMaster()
	nm, err := c.Recover("master2")
	if err != nil {
		t.Fatal(err)
	}
	nw.onWrite(func(string, string, int) {})
	if fromFirst.Load() != 4 || fromSecond.Load() < 8 {
		t.Fatalf("%d chunks from the lost source, %d from the other", fromFirst.Load(), fromSecond.Load())
	}
	if got := objectsOf(nm.Store().Snapshot()); !reflect.DeepEqual(got, want) {
		t.Fatal("the master restored from the second source differs")
	}
	done := transferEvents(nm.Events())
	if len(done) != 2 || done[0].Err == "" || done[1].Err != "" {
		t.Fatalf("transfers journaled: %+v", done)
	}
	for _, b := range c.BackupServers() {
		if got := objectsOf(b.Replica(1).Snapshot()); !reflect.DeepEqual(got, want) {
			t.Errorf("backup %s differs after the recovery", b.Addr())
		}
	}
}

// TestTransferResumesWithCursor: the connection under a pull drops at the
// fifth chunk. The receiver re-sends that one request, with the cursor it
// had reached, and the source goes on from there: no chunk that arrived is
// sent again.
func TestTransferResumesWithCursor(t *testing.T) {
	if testing.Short() {
		t.Skip("writes 10 MB through the partition")
	}
	nw := newMeteredNet()
	opts := testOptions()
	opts.F = 1
	c, err := Start(nw, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	cl := testClient(t, c, "big-client")
	stored := loadBigState(t, cl, tenChunks)
	settle(t, c.Master)
	want := objectsOf(c.Master.Store().Snapshot())

	src := c.Backups[0].Addr()
	var sent atomic.Int64
	nw.onWrite(func(from, to string, n int) {
		if from == src && to == "master2" && n >= chunkFrame && sent.Add(1) == 5 {
			// The reset kills this very frame: chunk five never arrives.
			nw.Partition(src, "master2")
			nw.Heal(src, "master2")
		}
	})
	nw.CrashHost(c.Master.Addr())
	c.CrashMaster()
	nm, err := c.Recover("master2")
	if err != nil {
		t.Fatal(err)
	}
	nw.onWrite(func(string, string, int) {})
	if got := objectsOf(nm.Store().Snapshot()); !reflect.DeepEqual(got, want) {
		t.Fatal("the master restored across the dropped connection differs")
	}
	done := transferEvents(nm.Events())
	if len(done) != 1 || done[0].Err != "" || !strings.Contains(done[0].Detail, "resumed 1×") || strings.Contains(done[0].Detail, "restarted") {
		t.Fatalf("transfer journaled: %+v", done)
	}
	var chunks int
	fmt.Sscanf(done[0].Detail[strings.Index(done[0].Detail, ": ")+2:], "%d chunks", &chunks)
	// The source sent every chunk once, and the lost one twice.
	if int(sent.Load()) != chunks+1 || chunks < stored/transferChunkBytes {
		t.Fatalf("source sent %d chunk frames for a transfer of %d chunks", sent.Load(), chunks)
	}
	t.Logf("%s; the source sent %d chunk frames", done[0].Detail, sent.Load())
}

// TestConcurrentSeedsUnderDifferentJobs: the heal loop replaces a dead
// backup while an operator replaces another one — two state transfers out
// of one master, each under its own job — with a writer running. Both
// replacements end up holding the master's state and the history stays
// linearizable.
func TestConcurrentSeedsUnderDifferentJobs(t *testing.T) {
	nw := transport.NewMemNetwork(nil)
	var evs eventLog
	opts := healOptions(&evs)
	opts.F = 3
	// Long enough that the race detector's pauses depose no live master.
	opts.Health.FailAfter = 300 * time.Millisecond
	c, err := Start(nw, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, err := c.NewClient("client")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	iv := recoveryInvariants{t, c}
	l := newLedger()
	var reg register
	for i := 0; i < 200; i++ {
		k, v := fmt.Sprint("k", i), strings.Repeat(fmt.Sprint(i%10), 4096)
		if _, err := cl.Put(ctx, []byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		l.wrote(k, v)
	}
	// The register is written and read while the test waits for the seeds,
	// a few operations per poll, so its history spans the dead backup, both
	// transfers and the swaps. A write that needs a sync fails while the
	// dead backup is still in the sync set; the register counts it as
	// open-ended.
	polls, ops := 0, 0
	during := func(done func() bool) func() bool {
		return func() bool {
			if polls++; polls%8 == 0 && ops < 40 {
				if ops++; ops%4 == 0 {
					reg.get(ctx, cl, "reg")
				} else {
					_ = reg.put(ctx, cl, "reg", fmt.Sprint("w", ops))
				}
			}
			return done()
		}
	}
	backups := c.BackupServers()
	dead, swapped := backups[0], backups[1]
	nw.CrashHost(dead.Addr())
	dead.Close()
	operator, err := c.SpareBackup(1)
	if err != nil {
		t.Fatal(err)
	}
	// The two replacements run at the same moment at the master; the
	// coordinator publishes them one after the other.
	seeded := make(chan error, 1)
	toOperator := rpc.NewPeer(nw, c.CurrentMaster().Addr(), operator)
	defer toOperator.Close()
	go func() { seeded <- c.CurrentMaster().seedBackup(ctx, toOperator, nil) }()
	waitFor(t, 30*time.Second, during(func() bool { return evs.count(EventBackupReplaced) > 0 }), "the heal loop to replace the dead backup")
	if err := <-seeded; err != nil {
		t.Fatalf("operator's seed: %v", err)
	}
	replaced := make(chan error, 1)
	go func() { replaced <- c.Coord.ReplaceBackup(1, swapped.Addr(), operator) }()
	var replaceErr error
	waitFor(t, 30*time.Second, during(func() bool {
		select {
		case replaceErr = <-replaced:
			return true
		default:
			return false
		}
	}), "the operator's replacement")
	if replaceErr != nil {
		t.Fatalf("operator's replacement: %v", replaceErr)
	}
	if err := c.WaitHealthy(ctx); err != nil {
		t.Fatal(err)
	}
	ms := c.CurrentMaster()
	settle(t, ms)
	want := objectsOf(ms.Store().Snapshot())
	jobs := map[string]bool{}
	for _, b := range c.BackupServers() {
		if b.Addr() == dead.Addr() {
			t.Fatalf("dead backup %s still listed", b.Addr())
		}
		if got := objectsOf(b.Replica(1).Snapshot()); !reflect.DeepEqual(got, want) {
			t.Errorf("backup %s differs from the master", b.Addr())
		}
		for _, ev := range transferEvents(b.Events()) {
			if ev.Err != "" {
				t.Errorf("backup %s: transfer failed: %+v", b.Addr(), ev)
			}
			jobs[strings.Fields(ev.Detail)[1]] = true
		}
	}
	if len(jobs) < 3 {
		t.Errorf("transfers ran under jobs %v, want three distinct ones (heal, the operator's two)", jobs)
	}
	iv.truncation(ms)
	iv.acknowledged(cl, l)
	reg.check(t, "two seeds at once")
}

// TestAckedOperationNotReplayed is the ack hazard. Operation n completes on
// the fast path; operation n+1 carries its ack; both sync, so the backups
// drop n's completion record; the witnesses never hear the gc and still
// hold n's request. The master dies. The witness replay must not execute n
// again: the snapshot says the client acknowledged it.
//
// PAPER §4.8 — and the reason Entry.Ack and rifl.ClientMark exist. Mutation
// check: with RestoreMarks commented out of masterSink.finish this test
// fails with "counter = 2".
func TestAckedOperationNotReplayed(t *testing.T) {
	c, nw := startTestCluster(t, slowSyncOptions(1))
	cl := testClient(t, c, "client")
	ctx := context.Background()
	if n, err := cl.Increment(ctx, []byte("ctr"), 1); err != nil || n != 1 {
		t.Fatalf("increment: %d, %v", n, err)
	}
	first := rifl.RPCID{Client: cl.Session().ClientID(), Seq: 1}
	// Withhold every witness gc from here on.
	for _, w := range c.Witnesses {
		nw.Blackhole(c.Master.Addr(), w.Addr())
	}
	if _, err := cl.Put(ctx, []byte("other"), []byte("carries the ack")); err != nil {
		t.Fatal(err)
	}
	if st := cl.Stats(); st.FastPath != 2 {
		t.Fatalf("the two operations did not both complete on the fast path: %+v", st)
	}
	if err := c.Master.eng.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	// Both are durable, n's record is gone from the backup, its mark is
	// there, and the witness still holds its request.
	snap := c.Backups[0].Replica(1).Snapshot()
	for _, rec := range snap.Completions {
		if rec.ID == first {
			t.Fatal("the backup kept a record its client acknowledged")
		}
	}
	if len(snap.Clients) != 1 || snap.Clients[0].FirstUnacked != 2 {
		t.Fatalf("backup's client marks = %+v, want firstUnacked 2", snap.Clients)
	}
	held := false
	for _, rec := range c.Witnesses[0].Instance(1).SnapshotRecords() {
		held = held || rec.ID == first
	}
	if !held {
		t.Fatal("the witness gave up the record although its gc was withheld")
	}
	recoveryInvariants{t, c}.completions(cl.Session(), 2)

	c.CrashMaster()
	nm, err := c.Recover("master2")
	if err != nil {
		t.Fatal(err)
	}
	if v, _, _ := nm.Store().Get([]byte("ctr")); string(v) != "1" {
		t.Fatalf("counter = %s after recovery: the acknowledged increment ran again", v)
	}
	// The client goes on where it was.
	if n, err := cl.Increment(ctx, []byte("ctr"), 1); err != nil || n != 2 {
		t.Fatalf("increment after recovery: %d, %v", n, err)
	}
}

// TestLeaseExpiryReachesBackups: a crashed client's completion records do
// not live on the backups for ever, and a master recovered from them keeps
// refusing the client.
func TestLeaseExpiryReachesBackups(t *testing.T) {
	c, _ := startTestCluster(t, slowSyncOptions(1))
	cl := testClient(t, c, "mortal")
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := cl.Increment(ctx, []byte("ctr"), 1); err != nil {
			t.Fatal(err)
		}
	}
	settle(t, c.Master)
	if n := c.Backups[0].Replica(1).CompletionRecords(); n == 0 {
		t.Fatal("backup holds no completion record of a live client")
	}
	if err := c.Master.ExpireClientLease(cl.Session().ClientID()); err != nil {
		t.Fatal(err)
	}
	if n := c.Backups[0].Replica(1).CompletionRecords(); n != 0 {
		t.Fatalf("backup holds %d completion records after the lease expiry", n)
	}
	c.CrashMaster()
	nm, err := c.Recover("master2")
	if err != nil {
		t.Fatal(err)
	}
	incr := kv.Increment([]byte("ctr"), 1)
	req := core.Request{
		ID: rifl.RPCID{Client: cl.Session().ClientID(), Seq: 2}, WitnessListVersion: nm.State().WitnessListVersion(),
		KeyHashes: incr.KeyHashes(), Payload: incr.Encode(),
	}
	out := nm.eng.Execute(ctx, &req, core.Speculative)
	if out.Reply.Status != core.StatusIgnored {
		t.Fatalf("a retry from the expired client got %v from the recovered master", out.Reply.Status)
	}
	if v, _, _ := nm.Store().Get([]byte("ctr")); string(v) != "3" {
		t.Fatalf("counter = %s", v)
	}
}

// TestFlatHeap: thirty thousand puts on an F=3 partition leave the heap
// where it was — the master's log is the unsynced window, the backups hold
// no entry at all. Skipped under the race detector, whose shadow memory is
// part of the heap it would measure.
func TestFlatHeap(t *testing.T) {
	if race.Enabled {
		t.Skip("heap growth is not measurable under the race detector")
	}
	if testing.Short() {
		t.Skip("30 k puts")
	}
	c, _ := startTestCluster(t, testOptions())
	cl := testClient(t, c, "client")
	ctx := context.Background()
	const keys, puts = 2000, 30000
	value := bytes.Repeat([]byte("v"), 100)
	key := func(i int) []byte { return []byte(fmt.Sprintf("flat-%026d", i%keys)) }
	for i := 0; i < keys; i++ {
		if _, err := cl.Put(ctx, key(i), value); err != nil {
			t.Fatal(err)
		}
	}
	heap := func() uint64 {
		settle(t, c.Master)
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	for i := 0; i < puts; i++ {
		if _, err := cl.Put(ctx, key(i*7), value); err != nil {
			t.Fatal(err)
		}
	}
	after := heap()
	perPut := (float64(after) - float64(before)) / puts
	batch := c.Master.State().Config().SyncBatchSize
	t.Logf("heap %d → %d bytes over %d puts: %.1f B/put; master log %d entries, backups %d objects / %d completion records",
		before, after, puts, perPut, c.Master.Store().LogLen(), c.Backups[0].Replica(1).Objects(), c.Backups[0].Replica(1).CompletionRecords())
	if perPut >= 100 {
		t.Errorf("heap grew %.1f bytes per put, want < 100", perPut)
	}
	if n := c.Master.Store().LogLen(); n > batch {
		t.Errorf("master log holds %d entries, more than a sync batch (%d)", n, batch)
	}
	for _, b := range c.Backups {
		r := b.Replica(1)
		if r.Objects() != keys {
			t.Errorf("backup %s holds %d objects for %d keys", b.Addr(), r.Objects(), keys)
		}
		if n := r.CompletionRecords(); n > batch {
			t.Errorf("backup %s holds %d completion records for one client", b.Addr(), n)
		}
	}
	recoveryInvariants{t, c}.truncation(c.Master)
}
