package addrbook

import "testing"

// TestLayout pins the port layout: curpd, curpctl and the smoke scripts in
// scripts/ all depend on exactly these numbers.
func TestLayout(t *testing.T) {
	b, err := Parse("127.0.0.1:7000")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		shard        int
		role         Role
		i            int
		rpc, metrics string
	}{
		{0, Coordinator, 0, "127.0.0.1:7000", "127.0.0.1:7500"},
		{0, Coordinator, 1, "127.0.0.1:7002", "127.0.0.1:7502"},
		{0, Coordinator, 2, "127.0.0.1:7003", "127.0.0.1:7503"},
		{0, Master, 0, "127.0.0.1:7001", "127.0.0.1:7501"},
		{0, Backup, 0, "127.0.0.1:7100", "127.0.0.1:7600"},
		{0, Backup, 2, "127.0.0.1:7102", "127.0.0.1:7602"},
		{0, Witness, 0, "127.0.0.1:7200", "127.0.0.1:7700"},
		{0, Witness, 2, "127.0.0.1:7202", "127.0.0.1:7702"},
		{0, Spare, 1, "127.0.0.1:7301", "127.0.0.1:7801"},
		{0, SpareWitness, 1, "127.0.0.1:7401", "127.0.0.1:7901"},
		{0, SpareBackup, 2, "127.0.0.1:7302", "127.0.0.1:7802"},
		{2, Coordinator, 0, "127.0.0.1:9000", "127.0.0.1:9500"},
		{2, Coordinator, 1, "127.0.0.1:9002", "127.0.0.1:9502"},
		{2, Master, 0, "127.0.0.1:9001", "127.0.0.1:9501"},
		{3, Witness, 1, "127.0.0.1:10201", "127.0.0.1:10701"},
	} {
		if got := b.RPC(tc.shard, tc.role, tc.i); got != tc.rpc {
			t.Errorf("RPC(shard %d, role %d, %d) = %s, want %s", tc.shard, tc.role, tc.i, got, tc.rpc)
		}
		if got := b.Metrics(tc.shard, tc.role, tc.i); got != tc.metrics {
			t.Errorf("Metrics(shard %d, role %d, %d) = %s, want %s", tc.shard, tc.role, tc.i, got, tc.metrics)
		}
		if got, err := MetricsOf(tc.rpc); err != nil || got != tc.metrics {
			t.Errorf("MetricsOf(%s) = %s, %v, want %s", tc.rpc, got, err, tc.metrics)
		}
	}
	for _, bad := range []string{"127.0.0.1", "127.0.0.1:http", ""} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		}
		if _, err := MetricsOf(bad); err == nil {
			t.Errorf("MetricsOf(%q) succeeded", bad)
		}
	}
}
