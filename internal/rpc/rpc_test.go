package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"curp/internal/transport"
)

func TestEncoderDecoderRoundTrip(t *testing.T) {
	e := NewEncoder(64)
	e.U8(7)
	e.Bool(true)
	e.Bool(false)
	e.U16(65535)
	e.U32(1 << 30)
	e.U64(1 << 60)
	e.I64(-42)
	e.Bytes32([]byte("payload"))
	e.String("κεψ") // non-ASCII
	e.U64Slice([]uint64{1, 2, 3})
	e.Bytes32(nil)

	d := NewDecoder(e.Bytes())
	if d.U8() != 7 || !d.Bool() || d.Bool() {
		t.Fatal("u8/bool")
	}
	if d.U16() != 65535 || d.U32() != 1<<30 || d.U64() != 1<<60 {
		t.Fatal("ints")
	}
	if d.I64() != -42 {
		t.Fatal("i64")
	}
	if string(d.Bytes32()) != "payload" {
		t.Fatal("bytes")
	}
	if d.String() != "κεψ" {
		t.Fatal("string")
	}
	vs := d.U64Slice()
	if len(vs) != 3 || vs[0] != 1 || vs[2] != 3 {
		t.Fatalf("slice %v", vs)
	}
	if b := d.Bytes32(); len(b) != 0 {
		t.Fatalf("empty bytes = %v", b)
	}
	if d.Err() != nil {
		t.Fatalf("err = %v", d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("remaining = %d", d.Remaining())
	}
}

func TestDecoderTruncation(t *testing.T) {
	e := NewEncoder(16)
	e.U64(123)
	full := e.Bytes()
	for cut := 0; cut < len(full); cut++ {
		d := NewDecoder(full[:cut])
		if d.U64() != 0 {
			t.Fatalf("cut %d: nonzero value", cut)
		}
		if !errors.Is(d.Err(), ErrTruncated) {
			t.Fatalf("cut %d: err = %v", cut, d.Err())
		}
		// Errors are sticky.
		d.U32()
		if !errors.Is(d.Err(), ErrTruncated) {
			t.Fatal("error not sticky")
		}
	}
	// Length prefix larger than remaining bytes.
	e2 := NewEncoder(8)
	e2.U32(1000)
	d := NewDecoder(e2.Bytes())
	if d.Bytes32() != nil || d.Err() == nil {
		t.Fatal("oversized length prefix not caught")
	}
	d2 := NewDecoder(e2.Bytes())
	if d2.U64Slice() != nil || d2.Err() == nil {
		t.Fatal("oversized slice prefix not caught")
	}
}

func TestDecoderCount(t *testing.T) {
	payload := func(count uint32, body int) []byte {
		e := NewEncoder(4 + body)
		e.U32(count)
		for i := 0; i < body; i++ {
			e.U8(0)
		}
		return e.Bytes()
	}
	cases := []struct {
		name    string
		count   uint32
		body    int
		minElem int
		want    int
		fails   bool
	}{
		{"empty", 0, 0, 16, 0, false},
		{"exact fit", 3, 48, 16, 3, false},
		{"room to spare", 2, 100, 16, 2, false},
		{"one byte short", 3, 47, 16, 0, true},
		{"hostile count", 0x7fffffff, 1, 4, 0, true},
		{"max count times large element", 0xffffffff, 8, 1 << 20, 0, true},
	}
	for _, tc := range cases {
		d := NewDecoder(payload(tc.count, tc.body))
		got := d.Count(tc.minElem)
		if got != tc.want || (d.Err() != nil) != tc.fails {
			t.Errorf("%s: Count = %d, err %v; want %d, fails %v", tc.name, got, d.Err(), tc.want, tc.fails)
		}
		if tc.fails && !errors.Is(d.Err(), ErrTruncated) {
			t.Errorf("%s: err = %v, want ErrTruncated", tc.name, d.Err())
		}
	}
	// A count cut off mid-prefix, and a count after an earlier failure.
	d := NewDecoder([]byte{1, 0})
	if d.Count(1) != 0 || d.Err() == nil {
		t.Fatal("truncated count prefix not caught")
	}
	d = NewDecoder(payload(1, 8))
	d.U64()
	d.U64() // fails: only 4 bytes were left
	if d.Count(1) != 0 || d.Err() == nil {
		t.Fatal("Count after a failed read must stay failed and read as 0")
	}
}

func TestStringsRoundTrip(t *testing.T) {
	for _, in := range [][]string{nil, {""}, {"a", "", "host:9000"}} {
		e := NewEncoder(16)
		e.Strings(in)
		e.U8(0xab) // the list must consume exactly its own bytes
		d := NewDecoder(e.Bytes())
		got := d.Strings()
		if d.U8() != 0xab || d.Err() != nil || len(got) != len(in) {
			t.Fatalf("Strings(%q) = %q, err %v", in, got, d.Err())
		}
		for i := range in {
			if got[i] != in[i] {
				t.Fatalf("Strings(%q) = %q", in, got)
			}
		}
	}
	// A count the payload cannot hold allocates nothing and fails.
	e := NewEncoder(8)
	e.U32(0x7fffffff)
	e.U8(0)
	d := NewDecoder(e.Bytes())
	if d.Strings() != nil || !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("oversized string count: err = %v", d.Err())
	}
}

func TestDecoderBytesCopy(t *testing.T) {
	e := NewEncoder(16)
	e.Bytes32([]byte("abc"))
	d := NewDecoder(e.Bytes())
	cp := d.BytesCopy32()
	e.Bytes()[5] = 'X' // mutate underlying buffer
	if string(cp) != "abc" {
		t.Fatalf("copy aliased buffer: %q", cp)
	}
	// BytesCopy32 on truncated data returns nil.
	d2 := NewDecoder([]byte{1})
	if d2.BytesCopy32() != nil {
		t.Fatal("truncated copy should be nil")
	}
}

func TestCodecQuick(t *testing.T) {
	f := func(a uint64, b []byte, s string, vs []uint64) bool {
		e := NewEncoder(0)
		e.U64(a)
		e.Bytes32(b)
		e.String(s)
		e.U64Slice(vs)
		d := NewDecoder(e.Bytes())
		if d.U64() != a {
			return false
		}
		if !bytes.Equal(d.Bytes32(), b) {
			return false
		}
		if d.String() != s {
			return false
		}
		got := d.U64Slice()
		if len(got) != len(vs) {
			return false
		}
		for i := range vs {
			if got[i] != vs[i] {
				return false
			}
		}
		return d.Err() == nil && d.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := frame{requestID: 42, kind: kindRequest, code: 7, payload: []byte("hi")}
	if err := writeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	var lenBuf [4]byte
	out, err := readFrame(&buf, &lenBuf)
	if err != nil {
		t.Fatal(err)
	}
	if out.requestID != 42 || out.kind != kindRequest || out.code != 7 || string(out.payload) != "hi" {
		t.Fatalf("frame = %+v", out)
	}
}

func TestFrameSizeLimit(t *testing.T) {
	var buf bytes.Buffer
	big := frame{payload: make([]byte, MaxFrameSize)}
	if err := writeFrame(&buf, big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v", err)
	}
	// A corrupt length prefix is rejected on read.
	buf.Reset()
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	var lenBuf [4]byte
	if _, err := readFrame(&buf, &lenBuf); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("read err = %v", err)
	}
	buf.Reset()
	buf.Write([]byte{2, 0, 0, 0, 0, 0}) // declared 2 < header size
	if _, err := readFrame(&buf, &lenBuf); err == nil {
		t.Fatal("short frame accepted")
	}
}

// startServer builds a server with an echo and an error opcode on an
// in-memory network.
func startServer(t *testing.T, nw *transport.MemNetwork, addr string) *Server {
	t.Helper()
	s := NewServer()
	s.Handle(1, func(_ context.Context, p []byte) ([]byte, error) { return p, nil })
	s.Handle(2, func(_ context.Context, p []byte) ([]byte, error) { return nil, fmt.Errorf("boom: %s", p) })
	s.Handle(3, func(_ context.Context, p []byte) ([]byte, error) {
		time.Sleep(50 * time.Millisecond)
		return []byte("slow"), nil
	})
	l, err := nw.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	s.Go(l)
	t.Cleanup(s.Close)
	return s
}

func TestClientServerEcho(t *testing.T) {
	nw := transport.NewMemNetwork(nil)
	startServer(t, nw, "srv")
	c, err := Dial(nw, "cli", "srv")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out, err := c.Call(context.Background(), 1, []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "ping" {
		t.Fatalf("echo = %q", out)
	}
}

func TestServerError(t *testing.T) {
	nw := transport.NewMemNetwork(nil)
	startServer(t, nw, "srv")
	c, _ := Dial(nw, "cli", "srv")
	defer c.Close()
	_, err := c.Call(context.Background(), 2, []byte("payload"))
	var se *ServerError
	if !errors.As(err, &se) || !strings.Contains(se.Error(), "boom: payload") {
		t.Fatalf("err = %v", err)
	}
	// Unknown opcode produces an error response, not a hang.
	_, err = c.Call(context.Background(), 99, nil)
	if !errors.As(err, &se) || !strings.Contains(se.Error(), "unknown opcode") {
		t.Fatalf("unknown opcode err = %v", err)
	}
}

func TestConcurrentCallsInterleave(t *testing.T) {
	// Slow calls must not block fast ones on the same connection.
	nw := transport.NewMemNetwork(nil)
	startServer(t, nw, "srv")
	c, _ := Dial(nw, "cli", "srv")
	defer c.Close()
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		if _, err := c.Call(context.Background(), 3, nil); err != nil {
			t.Error(err)
		}
	}()
	start := time.Now()
	if _, err := c.Call(context.Background(), 1, []byte("fast")); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 40*time.Millisecond {
		t.Fatalf("fast call blocked behind slow one: %v", el)
	}
	<-slowDone
}

func TestManyConcurrentCalls(t *testing.T) {
	nw := transport.NewMemNetwork(nil)
	startServer(t, nw, "srv")
	c, _ := Dial(nw, "cli", "srv")
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				msg := []byte(fmt.Sprintf("g%d-i%d", g, i))
				out, err := c.Call(context.Background(), 1, msg)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(out, msg) {
					t.Errorf("response mismatch: %q vs %q", out, msg)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestCallContextTimeout(t *testing.T) {
	nw := transport.NewMemNetwork(nil)
	startServer(t, nw, "srv")
	c, _ := Dial(nw, "cli", "srv")
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := c.Call(ctx, 3, nil) // 50ms handler
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	// Client is still usable afterwards.
	if _, err := c.Call(context.Background(), 1, []byte("ok")); err != nil {
		t.Fatalf("call after timeout: %v", err)
	}
}

func TestCallAfterClose(t *testing.T) {
	nw := transport.NewMemNetwork(nil)
	startServer(t, nw, "srv")
	c, _ := Dial(nw, "cli", "srv")
	c.Close()
	if _, err := c.Call(context.Background(), 1, nil); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("err = %v", err)
	}
	c.Close() // double close is fine
}

func TestPendingCallsFailOnConnLoss(t *testing.T) {
	nw := transport.NewMemNetwork(nil)
	startServer(t, nw, "srv")
	c, _ := Dial(nw, "cli", "srv")
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), 3, nil) // slow call in flight
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	nw.Partition("cli", "srv")
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("pending call should fail on partition")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending call hung after partition")
	}
	nw.Heal("cli", "srv")
}

func TestPeerRedials(t *testing.T) {
	nw := transport.NewMemNetwork(nil)
	startServer(t, nw, "srv")
	p := NewPeer(nw, "cli", "srv")
	defer p.Close()
	if p.Addr() != "srv" {
		t.Fatal("addr")
	}
	if _, err := p.Call(context.Background(), 1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	// Break the connection; the next call should re-dial and succeed.
	nw.Partition("cli", "srv")
	if _, err := p.Call(context.Background(), 1, []byte("b")); err == nil {
		t.Fatal("call during partition should fail")
	}
	nw.Heal("cli", "srv")
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := p.Call(context.Background(), 1, []byte("c")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("peer did not recover after heal")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestPeerDialFailure(t *testing.T) {
	nw := transport.NewMemNetwork(nil)
	p := NewPeer(nw, "cli", "ghost")
	defer p.Close()
	if _, err := p.Call(context.Background(), 1, nil); err == nil {
		t.Fatal("dial to missing server should fail")
	}
}

func TestDuplicateHandlerPanics(t *testing.T) {
	s := NewServer()
	s.Handle(1, func(_ context.Context, p []byte) ([]byte, error) { return p, nil })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Handle(1, func(_ context.Context, p []byte) ([]byte, error) { return p, nil })
}

func TestServerCloseUnblocksClients(t *testing.T) {
	nw := transport.NewMemNetwork(nil)
	s := startServer(t, nw, "srv")
	c, _ := Dial(nw, "cli", "srv")
	defer c.Close()
	if _, err := c.Call(context.Background(), 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := c.Call(context.Background(), 1, []byte("y")); err == nil {
		t.Fatal("call to closed server should fail")
	}
}

func TestServeOnClosedServer(t *testing.T) {
	nw := transport.NewMemNetwork(nil)
	s := NewServer()
	s.Close()
	l, err := nw.Listen("x")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Serve(l); err == nil {
		t.Fatal("Serve on closed server should error")
	}
}

func BenchmarkCallEcho(b *testing.B) {
	nw := transport.NewMemNetwork(nil)
	s := NewServer()
	s.Handle(1, func(_ context.Context, p []byte) ([]byte, error) { return p, nil })
	l, _ := nw.Listen("srv")
	s.Go(l)
	defer s.Close()
	c, _ := Dial(nw, "cli", "srv")
	defer c.Close()
	payload := make([]byte, 100)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call(ctx, 1, payload); err != nil {
			b.Fatal(err)
		}
	}
}
