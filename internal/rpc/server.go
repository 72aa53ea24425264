package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"curp/internal/metrics"
)

// Handler processes one request payload and returns a reply payload.
// Returning an error sends a StatusError response carrying the error text.
// ctx carries the request's decoded trace context (if the frame was
// traced), so handlers that thread ctx into downstream RPCs propagate the
// trace automatically.
type Handler func(ctx context.Context, payload []byte) ([]byte, error)

// Server dispatches incoming frames to opcode handlers. Requests are run by
// per-connection workers: goroutines that stay with their connection from
// one request to the next (so the stack a handler grew is still grown for
// the following one) and take frames from the connection's read loop. The
// read loop hands a frame to an idle worker, or — when every worker is
// inside a handler — starts one more, so a slow handler (e.g. a master
// waiting on a backup sync) never delays other requests on its connection,
// mirroring the worker-thread model of the paper's RAMCloud implementation.
// A worker that served nothing for workerLinger exits; all of a
// connection's workers exit when it closes, and Close waits for them.
type Server struct {
	mu       sync.RWMutex
	handlers map[uint16]Handler
	closed   bool
	lns      []net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
}

// workerLinger is how long an idle worker outlives its last request: long
// enough to span the gaps of a closed-loop caller on a wide-area link,
// short enough that a burst's extra workers do not stay for good.
const workerLinger = time.Second

// NewServer returns an empty server.
func NewServer() *Server {
	return &Server{
		handlers: make(map[uint16]Handler),
		conns:    make(map[net.Conn]struct{}),
	}
}

// Handle registers a handler for an opcode. It panics on duplicate
// registration — opcode tables are static program structure.
func (s *Server) Handle(op uint16, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.handlers[op]; dup {
		panic(fmt.Sprintf("rpc: duplicate handler for opcode %d", op))
	}
	s.handlers[op] = h
}

// Serve accepts connections from l until the server or listener is closed.
// It returns after the accept loop exits; in-flight handlers may still be
// draining (Close waits for them).
func (s *Server) Serve(l net.Listener) error {
	if err := s.track(l); err != nil {
		return err
	}
	return s.accept(l)
}

// Go runs Serve in a background goroutine. The listener is registered
// before Go returns, so a Close that follows immediately still closes it.
func (s *Server) Go(l net.Listener) {
	if s.track(l) == nil {
		go s.accept(l)
	}
}

// track registers l for Close; on a closed server it closes l instead.
func (s *Server) track(l net.Listener) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		l.Close()
		return errors.New("rpc: server closed")
	}
	s.lns = append(s.lns, l)
	return nil
}

func (s *Server) accept(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return errors.New("rpc: server closed")
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// connServer is one connection's serving state: the read loop feeds work,
// the workers answer on conn.
type connServer struct {
	s    *Server
	conn net.Conn
	// work is unbuffered: a send succeeds only while a worker is idle.
	work    chan frame
	workers sync.WaitGroup

	writeMu  sync.Mutex
	writeBuf []byte // reused across responses; guarded by writeMu
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	cs := &connServer{s: s, conn: conn, work: make(chan frame)}
	defer func() {
		close(cs.work)
		cs.workers.Wait()
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	var lenBuf [4]byte
	for {
		f, err := readFrame(conn, &lenBuf)
		if err != nil {
			return
		}
		if f.kind != kindRequest && f.kind != kindRequestTraced {
			continue // stray frame; ignore
		}
		select {
		case cs.work <- f:
		default:
			// Every worker is busy (or there is none yet): spill to one more.
			cs.workers.Add(1)
			go cs.worker(f)
		}
	}
}

// worker serves f, then further requests of its connection until the
// connection closes or it has been idle for a whole workerLinger period.
func (cs *connServer) worker(f frame) {
	defer cs.workers.Done()
	cs.serve(f)
	idle := time.NewTimer(workerLinger)
	defer idle.Stop()
	served := false
	for {
		select {
		case f, ok := <-cs.work:
			if !ok {
				return
			}
			cs.serve(f)
			served = true
		case <-idle.C:
			// The timer is checked once a period, not re-armed per request.
			if !served {
				return
			}
			served = false
			idle.Reset(workerLinger)
		}
	}
}

// serve runs one request's handler and writes its response.
func (cs *connServer) serve(f frame) {
	cs.s.mu.RLock()
	h := cs.s.handlers[f.code]
	cs.s.mu.RUnlock()
	ctx := context.Background()
	if f.tc.Valid() {
		ctx = metrics.ContextWithTrace(ctx, f.tc)
	}
	resp := frame{requestID: f.requestID, kind: kindResponse}
	if h == nil {
		resp.code = StatusError
		resp.payload = []byte(fmt.Sprintf("rpc: unknown opcode %d", f.code))
	} else if out, err := h(ctx, f.payload); err != nil {
		resp.code = StatusError
		resp.payload = []byte(err.Error())
	} else {
		resp.code = StatusOK
		resp.payload = out
	}
	cs.writeMu.Lock()
	defer cs.writeMu.Unlock()
	// Best effort: connection errors end the read loop. A reply too large
	// to frame was not written at all, though, and the caller would wait
	// for it forever — tell it instead.
	if err := writeFrameBuf(cs.conn, resp, &cs.writeBuf); errors.Is(err, ErrFrameTooLarge) {
		resp.code = StatusError
		resp.payload = []byte("rpc: reply exceeds frame limit")
		writeFrameBuf(cs.conn, resp, &cs.writeBuf)
	}
}

// Close stops accepting, closes all connections, and waits for in-flight
// handlers to finish.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	lns := s.lns
	var conns []net.Conn
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, l := range lns {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}
