package main

import (
	"context"
	"testing"
)

// The smoke test: -quick boots every workload's real stack, runs 2% of a
// round and checks the results, so the harness cannot rot unnoticed.
func TestQuickMode(t *testing.T) {
	if testing.Short() {
		t.Skip("boots five clusters; skipped with -short")
	}
	if err := runQuick(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
}
