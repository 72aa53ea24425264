package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"curp/internal/race"
	"curp/internal/transport"
)

// TestEchoAllocBudget pins the fixed cost of one RPC over the in-memory
// network, client and server side together: the four copies a frame cannot
// avoid here (memnet's Write copy and the reader's body, each way) and
// nothing per call besides — no reply channel, no frame object, no handler
// goroutine.
func TestEchoAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const budget = 6 // 14 with a goroutine, a channel and two heap frames per call
	nw := transport.NewMemNetwork(nil)
	startServer(t, nw, "srv")
	c, err := Dial(nw, "cli", "srv")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	payload := make([]byte, 256)
	got := testing.AllocsPerRun(2000, func() {
		if _, err := c.Call(ctx, 1, payload); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocs per echo (budget %d)", got, budget)
	if got > budget {
		t.Fatalf("an echo allocates %.1f objects, budget is %d", got, budget)
	}
}

// TestCloseAfterGoFreesAddress: Go registers the listener before it
// returns, so an immediate Close closes it and the address is free the
// moment Close returns — not whenever the accept goroutine gets to run.
func TestCloseAfterGoFreesAddress(t *testing.T) {
	nw := transport.NewMemNetwork(nil)
	for i := 0; i < 1000; i++ {
		l, err := nw.Listen("addr")
		if err != nil {
			t.Fatalf("round %d: the address is still taken after Close returned: %v", i, err)
		}
		s := NewServer()
		s.Go(l)
		s.Close()
	}
}

// TestOversizedReplyIsAnError: a handler reply that cannot be framed must
// fail the call, not leave it waiting for a frame that was never written.
func TestOversizedReplyIsAnError(t *testing.T) {
	nw := transport.NewMemNetwork(nil)
	s := startServer(t, nw, "srv")
	s.Handle(5, func(context.Context, []byte) ([]byte, error) { return make([]byte, MaxFrameSize+1), nil })
	c, err := Dial(nw, "cli", "srv")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err = c.Call(ctx, 5, nil)
	var se *ServerError
	if !errors.As(err, &se) || !strings.Contains(se.Message, "frame limit") {
		t.Fatalf("oversized reply: err = %v, want a ServerError naming the frame limit", err)
	}
	// The connection is still good.
	if out, err := c.Call(ctx, 1, []byte("after")); err != nil || string(out) != "after" {
		t.Fatalf("echo after the oversized reply: %q, %v", out, err)
	}
}

// TestCallHandlesUnderStress drives one peer from 8 goroutines, a third of
// the calls under contexts that end at random points, with the connection
// reset once mid-run. Recycled handles must never cross replies: every
// reply that is delivered carries its own request's payload. No call may
// hang, and nothing may stay registered.
func TestCallHandlesUnderStress(t *testing.T) {
	nw := transport.NewMemNetwork(nil)
	startServer(t, nw, "srv")
	p := NewPeer(nw, "cli", "srv")
	defer p.Close()
	const goroutines, calls = 8, 2000
	var started sync.WaitGroup // each goroutine's first quarter, before the reset
	started.Add(goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < calls; i++ {
				if i == calls/4 {
					started.Done()
				}
				msg := []byte(fmt.Sprintf("g%d-i%d", g, i))
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				if i%3 == 0 {
					cancel()
					ctx, cancel = context.WithTimeout(context.Background(), time.Duration(rng.Intn(50))*time.Microsecond)
				}
				var out []byte
				var err error
				if i%2 == 0 {
					out, err = p.Call(ctx, 1, msg)
				} else {
					h := p.Start(ctx, 1, msg)
					runtime.Gosched()
					out, err = h.Wait(ctx)
				}
				cancel()
				switch {
				case err == nil:
					if !bytes.Equal(out, msg) {
						t.Errorf("call %s was handed the reply %q", msg, out)
						return
					}
				case errors.Is(err, context.DeadlineExceeded) && i%3 == 0:
				case errors.Is(err, context.DeadlineExceeded):
					t.Errorf("call %s hung", msg)
					return
				default:
					// A transport error around the reset; the peer re-dials.
				}
			}
		}(g)
	}
	started.Wait()
	nw.Partition("cli", "srv") // resets the connection under the calls in flight
	nw.Heal("cli", "srv")
	wg.Wait()
	if out, err := p.Call(context.Background(), 1, []byte("last")); err != nil || string(out) != "last" {
		t.Fatalf("echo after the run: %q, %v", out, err)
	}
	cl, err := p.get()
	if err != nil {
		t.Fatal(err)
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if len(cl.pending) != 0 {
		t.Fatalf("%d calls still registered after every one was waited or cancelled", len(cl.pending))
	}
}

// TestBlockedHandlersDoNotDelayTheConnection: with every worker of a
// connection stuck inside a handler, the next request spills to a new
// worker instead of queueing; and when the connection closes, every worker
// it ever had exits — Close returns, and the process is back to the
// goroutines it had before the dial.
func TestBlockedHandlersDoNotDelayTheConnection(t *testing.T) {
	nw := transport.NewMemNetwork(nil)
	s := NewServer()
	release := make(chan struct{})
	entered := make(chan struct{})
	s.Handle(1, func(_ context.Context, p []byte) ([]byte, error) { return p, nil })
	s.Handle(4, func(context.Context, []byte) ([]byte, error) {
		entered <- struct{}{}
		<-release
		return nil, nil
	})
	l, err := nw.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	s.Go(l)
	before := runtime.NumGoroutine()

	c, err := Dial(nw, "cli", "srv")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	const blocked = 3
	var wg sync.WaitGroup
	for i := 0; i < blocked; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Call(ctx, 4, nil); err != nil {
				t.Error(err)
			}
		}()
		<-entered
	}
	for i := 0; i < 100; i++ { // served by a fourth worker, then by the same one again
		if out, err := c.Call(ctx, 1, []byte("echo")); err != nil || string(out) != "echo" {
			t.Fatalf("echo behind %d blocked handlers: %q, %v", blocked, out, err)
		}
	}
	close(release)
	wg.Wait()
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the dial, %d after the connection closed", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
	s.Close()
}
