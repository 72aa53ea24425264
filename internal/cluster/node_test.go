package cluster

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"curp/internal/addrbook"
	"curp/internal/transport"
)

// TestStartFailureReturnsErrorAndFreesAddresses: a Start that fails part way
// — here the master's address is taken, so the coordinator quorum, backups
// and witnesses are already serving — returns the error (it must not panic
// in its own cleanup) and closes every node it booted, leaving their
// addresses free again.
func TestStartFailureReturnsErrorAndFreesAddresses(t *testing.T) {
	for _, tc := range []struct {
		name   string
		health *HealthOptions
	}{
		{"plain", nil},
		{"self-healing", &HealthOptions{HeartbeatInterval: 2 * time.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nw := transport.NewMemNetwork(nil)
			opts := DefaultOptions()
			opts.F = 2
			opts.ControlPlaneReplicas = 3
			opts.ControlPlaneElectionTimeout = 20 * time.Millisecond
			opts.Health = tc.health
			names := HostNames("")
			squatter, err := nw.Listen(names(addrbook.Master, 0))
			if err != nil {
				t.Fatal(err)
			}
			c, err := Start(nw, opts)
			if !errors.Is(err, transport.ErrAddrInUse) || c != nil {
				t.Fatalf("Start = %v, %v; want nil, %v", c, err, transport.ErrAddrInUse)
			}
			squatter.Close()
			// Every address is free again: the same partition boots cleanly.
			c, err = Start(nw, opts)
			if err != nil {
				t.Fatalf("Start after a failed Start: %v", err)
			}
			c.Close()
		})
	}
}

// TestEndpointShapes pins the two JSON shapes of the observability mux: a
// node's own endpoint (EndpointsOf) answers /trace, /events and /hotkeys
// with ONE document — /hotkeys only on a master — while an aggregating
// endpoint (EndpointsOver) answers with an array, one document per node.
func TestEndpointShapes(t *testing.T) {
	opts := DefaultOptions()
	opts.F = 1
	c, err := Start(transport.NewMemNetwork(nil), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	get := func(h http.Handler, path string, into any) int {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), into); err != nil {
				t.Fatalf("%s: %v in %s", path, err, rec.Body)
			}
		}
		return rec.Code
	}
	type doc struct {
		Node string `json:"node"`
	}
	for _, b := range c.Nodes() {
		own := EndpointsOf(b).Mux(false)
		for _, path := range []string{"/trace", "/events", "/hotkeys"} {
			var d doc
			code := get(own, path, &d)
			if path == "/hotkeys" && b.Role != "master" {
				if code != http.StatusNotFound {
					t.Errorf("%s %s: status %d, want 404", b.Role, path, code)
				}
			} else if code != http.StatusOK || d.Node != b.Node {
				t.Errorf("%s %s: status %d, document of node %q, want %q", b.Role, path, code, d.Node, b.Node)
			}
		}
	}
	all := EndpointsOver(c.Nodes).Mux(false)
	for path, want := range map[string]int{"/trace": 4, "/events": 4, "/hotkeys": 1} {
		var docs []doc
		if code := get(all, path, &docs); code != http.StatusOK || len(docs) != want {
			t.Errorf("aggregate %s: status %d, %d documents, want %d", path, code, len(docs), want)
		}
	}
}
