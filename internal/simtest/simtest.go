//go:build goexperiment.synctest

// Package simtest runs a test body on virtual time. It is the only
// importer of testing/synctest — an experiment in Go 1.24 whose entry point
// changes in later toolchains — so a toolchain bump is a change to this
// file alone, and the build tag keeps it, and every test file that imports
// it, out of a default `go build`, `go vet` and `go test ./...`.
package simtest

import (
	"testing"
	"testing/synctest"
)

// Run executes body in a bubble: time.Now, timers and time.Sleep inside it
// read a virtual clock that starts at 2000-01-01 and advances only when
// every goroutine the body started is blocked on another of them, so a
// duration measured inside is a property of the protocol — timeouts and
// link delays — and not of the host. Run returns once every such goroutine
// has exited: one that outlives the body's Close calls hangs or deadlocks
// the bubble, and so fails the test.
//
// body runs on a goroutine of the bubble, not on t's. It may still call
// t.Fatal: that ends body after its deferred calls, and Run returns. (Run
// takes t because the experiment's successor, synctest.Test, does.)
func Run(t *testing.T, body func()) {
	t.Helper()
	synctest.Run(body)
}
