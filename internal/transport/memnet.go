package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// Errors returned by the in-memory network.
var (
	ErrAddrInUse     = errors.New("memnet: address already in use")
	ErrConnRefused   = errors.New("memnet: connection refused")
	ErrPartitioned   = errors.New("memnet: hosts partitioned")
	ErrListenerClose = errors.New("memnet: listener closed")
)

// MemNetwork is an in-memory Network. Connections are pairs of queues with
// per-message delivery delays computed by a LatencyModel. Tests and the
// benchmark harness inject failures with Partition, Blackhole, and
// CrashHost. Safe for concurrent use.
type MemNetwork struct {
	mu          sync.Mutex
	latency     LatencyModel
	listeners   map[string]*memListener
	partitioned map[[2]string]bool // directed: messages from a to b blocked at dial/write
	blackholed  map[[2]string]bool // directed: writes silently dropped
	conns       map[string][]*memConn
}

// NewMemNetwork creates an in-memory network with the given latency model
// (nil means zero latency).
func NewMemNetwork(latency LatencyModel) *MemNetwork {
	if latency == nil {
		latency = NoLatency
	}
	return &MemNetwork{
		latency:     latency,
		listeners:   make(map[string]*memListener),
		partitioned: make(map[[2]string]bool),
		blackholed:  make(map[[2]string]bool),
		conns:       make(map[string][]*memConn),
	}
}

// Listen implements Network.
func (n *MemNetwork) Listen(addr string) (net.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.listeners[addr]; ok {
		return nil, fmt.Errorf("%w: %s", ErrAddrInUse, addr)
	}
	l := &memListener{net: n, addr: addr, backlog: make(chan *memConn, 128)}
	n.listeners[addr] = l
	return l, nil
}

// Dial implements Network.
func (n *MemNetwork) Dial(from, addr string) (net.Conn, error) {
	n.mu.Lock()
	if n.partitioned[[2]string{from, addr}] || n.partitioned[[2]string{addr, from}] {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: %s -> %s", ErrPartitioned, from, addr)
	}
	l, ok := n.listeners[addr]
	if !ok {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrConnRefused, addr)
	}
	client := newMemConn(n, from, addr)
	server := newMemConn(n, addr, from)
	client.peer, server.peer = server, client
	n.conns[from] = append(n.conns[from], client)
	n.conns[addr] = append(n.conns[addr], server)
	n.mu.Unlock()

	select {
	case l.backlog <- server:
		return client, nil
	case <-l.closed():
		client.Close()
		return nil, fmt.Errorf("%w: %s", ErrConnRefused, addr)
	}
}

// Partition blocks all traffic between hosts a and b (both directions):
// existing connections between them are reset and new dials fail, modeling
// a network partition. Heal reverses it.
func (n *MemNetwork) Partition(a, b string) {
	n.mu.Lock()
	n.partitioned[[2]string{a, b}] = true
	n.partitioned[[2]string{b, a}] = true
	var toReset []*memConn
	for _, c := range n.conns[a] {
		if c.remoteHost == b {
			toReset = append(toReset, c, c.peer)
		}
	}
	n.mu.Unlock()
	for _, c := range toReset {
		c.reset()
	}
}

// Heal removes a partition between a and b.
func (n *MemNetwork) Heal(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.partitioned, [2]string{a, b})
	delete(n.partitioned, [2]string{b, a})
}

// Blackhole makes writes from host `from` to host `to` vanish silently
// while the connection stays apparently healthy — the zombie-master
// scenario of paper §4.7. Unblackhole reverses it.
func (n *MemNetwork) Blackhole(from, to string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blackholed[[2]string{from, to}] = true
}

// Unblackhole removes a blackhole.
func (n *MemNetwork) Unblackhole(from, to string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.blackholed, [2]string{from, to})
}

// CrashHost resets every connection of a host and removes its listeners,
// simulating a process crash.
func (n *MemNetwork) CrashHost(host string) {
	n.mu.Lock()
	var toReset []*memConn
	for _, c := range n.conns[host] {
		toReset = append(toReset, c, c.peer)
	}
	delete(n.conns, host)
	if l, ok := n.listeners[host]; ok {
		delete(n.listeners, host)
		l.closeLocked()
	}
	n.mu.Unlock()
	for _, c := range toReset {
		c.reset()
	}
}

// route is the one network-wide lookup a Write makes: whether the message
// vanishes (blackholed or partitioned direction) and the latency model in
// force. A healthy network has no fault entries, so the common case hashes
// no host names.
func (n *MemNetwork) route(from, to string) (drop bool, m LatencyModel) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.blackholed)+len(n.partitioned) > 0 {
		dir := [2]string{from, to}
		drop = n.blackholed[dir] || n.partitioned[dir]
	}
	return drop, n.latency
}

func (n *MemNetwork) removeListener(addr string, l *memListener) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.listeners[addr] == l {
		delete(n.listeners, addr)
	}
}

type memListener struct {
	net     *MemNetwork
	addr    string
	backlog chan *memConn

	closeOnce sync.Once
	done      chan struct{}
	doneInit  sync.Once
}

func (l *memListener) closed() chan struct{} {
	l.doneInit.Do(func() { l.done = make(chan struct{}) })
	return l.done
}

// Accept implements net.Listener.
func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.closed():
		return nil, ErrListenerClose
	}
}

// Close implements net.Listener.
func (l *memListener) Close() error {
	l.net.removeListener(l.addr, l)
	l.closeLocked()
	return nil
}

func (l *memListener) closeLocked() {
	l.closeOnce.Do(func() { close(l.closed()) })
}

// Addr implements net.Listener.
func (l *memListener) Addr() net.Addr { return memAddr(l.addr) }

type memAddr string

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return string(a) }

type chunk struct {
	data []byte
	at   time.Time
}

// memConn is one direction-pair endpoint of an in-memory connection.
type memConn struct {
	net        *MemNetwork
	localHost  string
	remoteHost string
	peer       *memConn

	mu   sync.Mutex
	cond *sync.Cond
	// queue[head:] are the undelivered messages. Delivery advances head and
	// the slice rewinds once it drains, so a request/response connection
	// reuses one backing array forever instead of reallocating per message.
	queue        []chunk
	head         int
	current      []byte
	lastDeliver  time.Time
	closed       bool
	resetErr     bool
	readDeadline time.Time
}

func newMemConn(n *MemNetwork, local, remote string) *memConn {
	c := &memConn{net: n, localHost: local, remoteHost: remote}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Write implements net.Conn: the payload is enqueued on the peer with a
// delivery time now+delay. Delivery times are forced monotonic per
// direction so the byte stream stays FIFO under jittery latency models.
func (c *memConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, io.ErrClosedPipe
	}
	c.mu.Unlock()
	drop, latency := c.net.route(c.localHost, c.remoteHost)
	if drop {
		// Blackholed: pretend success, deliver nothing.
		return len(p), nil
	}
	delay := latency.Delay(c.localHost, c.remoteHost, len(p))
	buf := make([]byte, len(p))
	copy(buf, p)
	peer := c.peer
	peer.mu.Lock()
	if peer.closed {
		peer.mu.Unlock()
		return 0, io.ErrClosedPipe
	}
	at := time.Now().Add(delay)
	if at.Before(peer.lastDeliver) {
		at = peer.lastDeliver
	}
	peer.lastDeliver = at
	if peer.head > 0 && len(peer.queue) == cap(peer.queue) {
		// A backlog that never fully drains: slide it down over the
		// delivered prefix before growing.
		n := copy(peer.queue, peer.queue[peer.head:])
		clear(peer.queue[n:])
		peer.queue, peer.head = peer.queue[:n], 0
	}
	peer.queue = append(peer.queue, chunk{data: buf, at: at})
	peer.cond.Broadcast()
	peer.mu.Unlock()
	return len(p), nil
}

// Read implements net.Conn.
func (c *memConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if len(c.current) == 0 && c.head < len(c.queue) {
			head := c.queue[c.head]
			now := time.Now()
			if !head.at.After(now) {
				c.current = head.data
				c.queue[c.head] = chunk{}
				if c.head++; c.head == len(c.queue) {
					c.queue, c.head = c.queue[:0], 0
				}
			} else if exceeded, werr := c.waitUntil(head.at); exceeded {
				return 0, werr
			} else {
				continue
			}
		}
		if len(c.current) > 0 {
			n := copy(p, c.current)
			c.current = c.current[n:]
			return n, nil
		}
		if c.closed {
			if c.resetErr {
				return 0, io.ErrUnexpectedEOF
			}
			return 0, io.EOF
		}
		if exceeded, werr := c.waitUntil(time.Time{}); exceeded {
			return 0, werr
		}
	}
}

// waitUntil blocks until the condition variable fires, `until` passes
// (if non-zero), or the read deadline passes. It returns exceeded=true with
// a timeout error when the deadline has passed. Must hold c.mu.
func (c *memConn) waitUntil(until time.Time) (exceeded bool, err error) {
	deadline := c.readDeadline
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		return true, os.ErrDeadlineExceeded
	}
	wake := until
	if wake.IsZero() || (!deadline.IsZero() && deadline.Before(wake)) {
		wake = deadline
	}
	if wake.IsZero() {
		c.cond.Wait()
		return false, nil
	}
	// Timed wait: spawn a timer that broadcasts, then wait once.
	d := time.Until(wake)
	if d <= 0 {
		// Delivery time already passed; loop around without waiting.
		if until.IsZero() {
			return true, os.ErrDeadlineExceeded
		}
		return false, nil
	}
	t := time.AfterFunc(d, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	c.cond.Wait()
	t.Stop()
	return false, nil
}

// Close implements net.Conn.
func (c *memConn) Close() error {
	c.closeWith(false)
	if p := c.peer; p != nil {
		p.closeWith(false)
	}
	return nil
}

// reset simulates an abortive close (connection reset by partition/crash).
func (c *memConn) reset() {
	c.closeWith(true)
}

func (c *memConn) closeWith(reset bool) {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		c.resetErr = reset
		c.cond.Broadcast()
	}
	c.mu.Unlock()
}

// LocalAddr implements net.Conn.
func (c *memConn) LocalAddr() net.Addr { return memAddr(c.localHost) }

// RemoteAddr implements net.Conn.
func (c *memConn) RemoteAddr() net.Addr { return memAddr(c.remoteHost) }

// SetDeadline implements net.Conn (read side only; writes never block).
func (c *memConn) SetDeadline(t time.Time) error { return c.SetReadDeadline(t) }

// SetReadDeadline implements net.Conn.
func (c *memConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline = t
	c.cond.Broadcast()
	c.mu.Unlock()
	return nil
}

// SetWriteDeadline implements net.Conn; in-memory writes never block, so it
// is a no-op.
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }
