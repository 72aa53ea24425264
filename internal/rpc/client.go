package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"curp/internal/metrics"
	"curp/internal/transport"
)

// ServerError is an application-level error returned by a remote handler.
type ServerError struct {
	Message string
}

// Error implements error.
func (e *ServerError) Error() string { return e.Message }

// ErrClientClosed reports a call on a closed client.
var ErrClientClosed = errors.New("rpc: client closed")

// Client is a connection to one RPC server supporting concurrent calls.
// Safe for concurrent use.
type Client struct {
	conn net.Conn

	writeMu  sync.Mutex
	writeBuf []byte // frame scratch; guarded by writeMu

	lenBuf [4]byte // the read loop's length-prefix scratch

	mu      sync.Mutex
	pending map[uint64]*Call
	nextID  uint64
	closed  bool
	readErr error
}

// Dial connects to addr over the given network. from identifies the caller
// for latency/partition modeling on in-memory networks.
func Dial(nw transport.Network, from, addr string) (*Client, error) {
	conn, err := nw.Dial(from, addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:    conn,
		pending: make(map[uint64]*Call),
		nextID:  1,
	}
	go c.readLoop()
	return c
}

func (c *Client) readLoop() {
	for {
		f, err := readFrame(c.conn, &c.lenBuf)
		if err != nil {
			c.failAll(err)
			return
		}
		if f.kind != kindResponse {
			continue
		}
		if h := c.forget(f.requestID); h != nil {
			h.reply <- f
		}
	}
}

// forget removes and returns the pending call registered under id (nil when
// a reply, a failure or a cancel already took it). Whoever gets the call
// back owns its reply slot.
func (c *Client) forget(id uint64) *Call {
	c.mu.Lock()
	h := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	return h
}

func (c *Client) failAll(err error) {
	c.mu.Lock()
	c.readErr = err
	calls := c.pending
	c.pending = make(map[uint64]*Call)
	c.mu.Unlock()
	failure := fmt.Errorf("rpc: connection failed: %w", err)
	for _, h := range calls {
		h.err = failure
		h.reply <- frame{}
	}
}

// Call is the handle of one request in flight: Start registers and sends
// it, Wait collects the reply, Cancel abandons it. Starting several calls
// before waiting for any is how one goroutine keeps requests to many
// servers in flight at once.
//
// Every started call must be waited or cancelled, exactly once, and the
// handle not touched afterwards: Wait recycles it. Until then the call
// holds an entry in its client's pending table. A handle given up before
// its reply was collected — by Cancel, or by ctx ending inside Wait — is
// never recycled, because the read loop may already have taken it out of
// the table and be about to fill its reply slot.
type Call struct {
	c  *Client
	id uint64
	// reply has capacity 1 and receives exactly one frame per registration,
	// from whoever removed the call from the pending table: the read loop
	// (the response) or failAll (an empty frame, err set before the send).
	reply chan frame
	// err is why there will be no response: Start could not send the
	// request, or the connection failed underneath it.
	err error
}

var callPool = sync.Pool{New: func() any { return &Call{reply: make(chan frame, 1)} }}

// failedCall is the handle of a request that never went out.
func failedCall(err error) *Call {
	h := callPool.Get().(*Call)
	h.err = err
	return h
}

// Start sends a request and returns without waiting for the response. It
// does not fail: a request that could not be registered or sent is reported
// by the handle's Wait. ctx supplies the trace context the frame carries;
// it is Wait's ctx that bounds the call.
func (c *Client) Start(ctx context.Context, op uint16, payload []byte) *Call {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return failedCall(ErrClientClosed)
	}
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		return failedCall(fmt.Errorf("rpc: connection failed: %w", err))
	}
	h := callPool.Get().(*Call)
	h.c, h.id = c, c.nextID
	c.nextID++
	c.pending[h.id] = h
	c.mu.Unlock()

	req := frame{requestID: h.id, kind: kindRequest, code: op, payload: payload}
	if tc, ok := metrics.TraceFromContext(ctx); ok {
		req.kind = kindRequestTraced
		req.tc = tc
	}
	c.writeMu.Lock()
	err := writeFrameBuf(c.conn, req, &c.writeBuf)
	c.writeMu.Unlock()
	if err != nil && c.forget(h.id) == h {
		// Still ours: nothing will ever fill the slot. (Had a connection
		// failure taken it first, Wait would report that instead.)
		h.c, h.err = nil, fmt.Errorf("rpc: send: %w", err)
	}
	return h
}

// Wait blocks for the call's response or ctx cancellation. A *ServerError
// is returned for handler-level failures; transport errors indicate the
// connection is broken and the client should be re-dialed. The returned
// payload is the caller's to keep.
func (h *Call) Wait(ctx context.Context) ([]byte, error) {
	if h.c == nil {
		err := h.err
		h.recycle()
		return nil, err
	}
	select {
	case f := <-h.reply:
		err := h.err
		h.recycle()
		if err != nil {
			return nil, err
		}
		if f.code == StatusError {
			return nil, &ServerError{Message: string(f.payload)}
		}
		return f.payload, nil
	case <-ctx.Done():
		h.Cancel()
		return nil, ctx.Err()
	}
}

// Cancel abandons the call: its pending entry is released and a response
// that still arrives is dropped.
func (h *Call) Cancel() {
	if h.c != nil {
		h.c.forget(h.id)
	}
}

// recycle returns a handle nobody else can reach — never registered, or its
// one reply already received — to the pool.
func (h *Call) recycle() {
	*h = Call{reply: h.reply}
	callPool.Put(h)
}

// Call sends a request and waits for its response or ctx cancellation.
func (c *Client) Call(ctx context.Context, op uint16, payload []byte) ([]byte, error) {
	return c.Start(ctx, op, payload).Wait(ctx)
}

// Close tears down the connection; pending calls fail.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	c.conn.Close()
}

// Peer is a lazily dialed, self-healing client for a fixed address: Call
// dials on first use and re-dials after transport failures. It is the
// building block cluster components use to talk to each other. Safe for
// concurrent use.
type Peer struct {
	nw   transport.Network
	from string
	addr string

	mu     sync.Mutex
	client *Client
}

// NewPeer creates a peer handle (no connection is made yet).
func NewPeer(nw transport.Network, from, addr string) *Peer {
	return &Peer{nw: nw, from: from, addr: addr}
}

// Addr returns the peer's address.
func (p *Peer) Addr() string { return p.addr }

func (p *Peer) get() (*Client, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.client != nil {
		p.client.mu.Lock()
		healthy := p.client.readErr == nil && !p.client.closed
		p.client.mu.Unlock()
		if healthy {
			return p.client, nil
		}
		p.client.Close()
		p.client = nil
	}
	cl, err := Dial(p.nw, p.from, p.addr)
	if err != nil {
		return nil, err
	}
	p.client = cl
	return cl, nil
}

// Start begins a call of op on the peer, dialing or re-dialing as needed; a
// dial failure is reported by the handle's Wait. Transport failures are
// returned to the caller (no automatic retry: CURP's client layer owns retry
// policy, since retried updates must carry RIFL IDs).
func (p *Peer) Start(ctx context.Context, op uint16, payload []byte) *Call {
	cl, err := p.get()
	if err != nil {
		return failedCall(err)
	}
	return cl.Start(ctx, op, payload)
}

// Call is Start followed by Wait.
func (p *Peer) Call(ctx context.Context, op uint16, payload []byte) ([]byte, error) {
	return p.Start(ctx, op, payload).Wait(ctx)
}

// Close closes the current connection, if any.
func (p *Peer) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.client != nil {
		p.client.Close()
		p.client = nil
	}
}
