package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"curp/internal/events"
	"curp/internal/kv"
	"curp/internal/metrics"
	"curp/internal/rifl"
	"curp/internal/rpc"
	"curp/internal/witness"
)

// This file is the ONE way a whole state moves between nodes: recovery
// (a new master pulls from a fenced backup), the re-seed that follows it,
// and backup replacement (a backup pulls from the live master) are all the
// same receiver loop, pullState, against the same sender,
// transferSource.serve. The contract, on zrepl's replication step:
//
//	(job, cursor) → (chunk, next cursor, done)
//
// The receiver drives. Its first request (zero cursor) makes the source
// capture its state at one LSN — an image: objects in key-hash order, then
// prepared transactions, decision records, completion records, client
// marks, moved ranges — and every request returns the elements after the
// cursor, under one byte budget. A pull interrupted between chunks is
// re-invoked with the cursor it reached and continues; a source that no
// longer knows the job (it restarted, or the job aged out) says so and the
// receiver starts over; jobs are independent of each other. The receiver
// installs chunks into a replica built aside and puts it to use only when
// the last chunk is in.

const (
	// transferChunkBytes is the byte budget of one chunk: the elements of a
	// chunk are chosen so their encoding stays under it (one element larger
	// than the budget travels alone). 1 MiB is well below rpc.MaxFrameSize,
	// so no state, however large, needs a frame the transport refuses, and
	// large enough that a recovery's chunk count stays in the tens per
	// hundred megabytes.
	transferChunkBytes = 1 << 20
	// transferJobLifetime is how long a source keeps an image no request
	// has touched. An image pins the values it shares with the store even
	// after they are overwritten, so an abandoned job must age out; a live
	// receiver asks again within one chunk round trip, so anything in the
	// tens of seconds only ever ends a dead one.
	transferJobLifetime = 30 * time.Second
	// transferChunkTimeout bounds one chunk's round trip at the receiver,
	// and transferAttempts how many times in a row it may fail (or the
	// source lose the job) before the receiver gives this source up.
	transferChunkTimeout = 5 * time.Second
	transferAttempts     = 3
	// transferDeadline bounds a whole transfer as seen by whoever asked a
	// receiver to run one: a receiver that makes no progress fails by
	// itself, chunk timeout by chunk timeout, long before this.
	transferDeadline = 2 * time.Minute
)

// stateImage is a replica's whole state at one LSN, or — as a chunk — a
// piece of one: the store-level snapshot plus the ring arcs that migrated
// away (a backup must keep refusing §A.1 reads of those).
type stateImage struct {
	kv.Snapshot
	Moved []witness.HashRange
}

// Image sections, in transfer order.
const (
	sectionObjects uint8 = iota
	sectionPrepared
	sectionDecisions
	sectionCompletions
	sectionClients
	sectionMoved
	sectionEnd
)

// transferCursor is a position in an image: the snapshot LSN (0 in a
// job's first request) and the next element of a section.
type transferCursor struct {
	LSN     kv.LSN
	Section uint8
	Pos     uint64
}

func (c transferCursor) String() string {
	return fmt.Sprintf("lsn %d section %d pos %d", c.LSN, c.Section, c.Pos)
}

// Wire sizes of the elements only chunks carry.
const (
	minPreparedWireSize   = 16 + 8 + 4 + 8 + 4 + 4 // txn ID, home (master, addr, hash), no writes, no keys
	minTxnWriteWireSize   = 1 + 4 + 4 + 8          // op, empty key and value, delta
	minClientMarkWireSize = 8 + 8 + 1
	hashRangeWireSize     = 16
)

func marshalPrepared(e *rpc.Encoder, p *kv.PreparedTxn) {
	marshalRPCID(e, p.ID)
	e.U64(p.Home.MasterID)
	e.String(p.Home.Addr)
	e.U64(p.Home.KeyHash)
	e.U32(uint32(len(p.Writes)))
	for _, w := range p.Writes {
		e.U8(uint8(w.Op))
		e.Bytes32(w.Key)
		e.Bytes32(w.Value)
		e.I64(w.Delta)
	}
	e.U32(uint32(len(p.Keys)))
	for _, k := range p.Keys {
		e.Bytes32(k)
	}
}

func unmarshalPrepared(d *rpc.Decoder) kv.PreparedTxn {
	p := kv.PreparedTxn{ID: unmarshalRPCID(d)}
	p.Home.MasterID = d.U64()
	p.Home.Addr = d.String()
	p.Home.KeyHash = d.U64()
	p.Writes = unmarshalRun(d, minTxnWriteWireSize, func(d *rpc.Decoder) kv.TxnWrite {
		return kv.TxnWrite{Op: kv.CommandOp(d.U8()), Key: d.BytesCopy32(), Value: d.BytesCopy32(), Delta: d.I64()}
	})
	p.Keys = unmarshalRun(d, 4, (*rpc.Decoder).BytesCopy32)
	return p
}

func preparedWireSize(p *kv.PreparedTxn) int {
	n := minPreparedWireSize + len(p.Home.Addr)
	for _, w := range p.Writes {
		n += minTxnWriteWireSize + len(w.Key) + len(w.Value)
	}
	for _, k := range p.Keys {
		n += 4 + len(k)
	}
	return n
}

func marshalClientMark(e *rpc.Encoder, m *rifl.ClientMark) {
	e.U64(uint64(m.Client))
	e.U64(uint64(m.FirstUnacked))
	e.Bool(m.Expired)
}

func unmarshalClientMark(d *rpc.Decoder) rifl.ClientMark {
	return rifl.ClientMark{Client: rifl.ClientID(d.U64()), FirstUnacked: rifl.Seq(d.U64()), Expired: d.Bool()}
}

func marshalHashRange(e *rpc.Encoder, r *witness.HashRange) {
	e.U64(r.Lo)
	e.U64(r.Hi)
}

func unmarshalHashRange(d *rpc.Decoder) witness.HashRange {
	return witness.HashRange{Lo: d.U64(), Hi: d.U64()}
}

// marshal appends the image's (a chunk's) wire form: one counted run per
// section, in section order.
func (img *stateImage) marshal(e *rpc.Encoder) {
	marshalRun(e, img.Objects, marshalObject)
	marshalRun(e, img.Prepared, marshalPrepared)
	marshalRun(e, img.Decisions, marshalDecision)
	marshalRun(e, img.Completions, marshalCompletion)
	marshalRun(e, img.Clients, marshalClientMark)
	marshalRun(e, img.Moved, marshalHashRange)
}

func (img *stateImage) unmarshal(d *rpc.Decoder) {
	img.Objects = unmarshalRun(d, minMigratedObjectWireSize, unmarshalObject)
	img.Prepared = unmarshalRun(d, minPreparedWireSize, unmarshalPrepared)
	img.Decisions = unmarshalRun(d, minDecisionWireSize, unmarshalDecision)
	img.Completions = unmarshalRun(d, minCompletionWireSize, unmarshalCompletion)
	img.Clients = unmarshalRun(d, minClientMarkWireSize, unmarshalClientMark)
	img.Moved = unmarshalRun(d, hashRangeWireSize, unmarshalHashRange)
}

// cut returns the piece of the image that starts at cur and fits budget
// bytes, its encoded size, the cursor after it, and whether that is the
// image's end. A piece always holds at least one element when any is left,
// so an element larger than the budget still travels, alone.
func (img *stateImage) cut(cur transferCursor, budget int) (piece stateImage, size int, next transferCursor, done bool) {
	piece.LSN = img.LSN
	room, empty := budget, true
	next = transferCursor{LSN: img.LSN, Section: cur.Section, Pos: cur.Pos}
	for ; next.Section < sectionEnd; next.Section, next.Pos = next.Section+1, 0 {
		var full bool
		switch next.Section {
		case sectionObjects:
			full = take(&piece.Objects, img.Objects, &next.Pos, &room, &empty, func(o *kv.MigratedObject) int {
				return minMigratedObjectWireSize + len(o.Key) + len(o.Value)
			})
		case sectionPrepared:
			full = take(&piece.Prepared, img.Prepared, &next.Pos, &room, &empty, preparedWireSize)
		case sectionDecisions:
			full = take(&piece.Decisions, img.Decisions, &next.Pos, &room, &empty, func(*kv.TxnDecisionRecord) int {
				return minDecisionWireSize
			})
		case sectionCompletions:
			full = take(&piece.Completions, img.Completions, &next.Pos, &room, &empty, func(c *rifl.Completion) int {
				return minCompletionWireSize + len(c.Result) + 8*len(c.KeyHashes)
			})
		case sectionClients:
			full = take(&piece.Clients, img.Clients, &next.Pos, &room, &empty, func(*rifl.ClientMark) int {
				return minClientMarkWireSize
			})
		case sectionMoved:
			full = take(&piece.Moved, img.Moved, &next.Pos, &room, &empty, func(*witness.HashRange) int {
				return hashRangeWireSize
			})
		}
		if full {
			return piece, budget - room, next, false
		}
	}
	return piece, budget - room, next, true
}

// take moves elements of src, from *pos on, into *dst while they fit *room
// (the first element of an empty piece always fits). It reports whether it
// stopped for lack of room, i.e. before the end of src.
func take[T any](dst *[]T, src []T, pos *uint64, room *int, empty *bool, size func(*T) int) (full bool) {
	for ; *pos < uint64(len(src)); *pos++ {
		n := size(&src[*pos])
		if n > *room && !*empty {
			return true
		}
		*dst = append(*dst, src[*pos])
		*room -= n
		*empty = false
	}
	return false
}

// pullRequest is the payload of OpStatePull.
type pullRequest struct {
	MasterID uint64
	Job      uint64
	Cursor   transferCursor
}

func (r *pullRequest) encode() []byte {
	e := rpc.NewEncoder(40)
	e.U64(r.MasterID)
	e.U64(r.Job)
	e.U64(uint64(r.Cursor.LSN))
	e.U8(r.Cursor.Section)
	e.U64(r.Cursor.Pos)
	return e.Bytes()
}

func decodePullRequest(b []byte) (pullRequest, error) {
	d := rpc.NewDecoder(b)
	r := pullRequest{MasterID: d.U64(), Job: d.U64()}
	r.Cursor = transferCursor{LSN: kv.LSN(d.U64()), Section: d.U8(), Pos: d.U64()}
	return r, d.Err()
}

// pullReply is the reply of OpStatePull: a chunk, or the news that the
// source does not hold the job the cursor belongs to.
type pullReply struct {
	JobLost bool
	Chunk   stateImage
	Next    transferCursor
	Done    bool
}

// pullReplyHeader is what a reply carries besides its chunk's elements:
// the flags, the LSN, the next cursor and the six run counts.
const pullReplyHeader = 1 + 8 + 1 + 8 + 1 + 6*4

func (r *pullReply) encode(sizeHint int) []byte {
	e := rpc.NewEncoder(pullReplyHeader + sizeHint)
	e.Bool(r.JobLost)
	e.U64(uint64(r.Chunk.LSN))
	e.U8(r.Next.Section)
	e.U64(r.Next.Pos)
	e.Bool(r.Done)
	r.Chunk.marshal(e)
	return e.Bytes()
}

func decodePullReply(b []byte) (*pullReply, error) {
	d := rpc.NewDecoder(b)
	r := &pullReply{JobLost: d.Bool()}
	r.Chunk.LSN = kv.LSN(d.U64())
	r.Next = transferCursor{LSN: r.Chunk.LSN, Section: d.U8(), Pos: d.U64()}
	r.Done = d.Bool()
	r.Chunk.unmarshal(d)
	if err := d.Err(); err != nil {
		return nil, err
	}
	return r, nil
}

// transferSource is the sending side of state transfers on one node: the
// images of its live jobs. A backup server and a master server each own
// one and differ only in capture.
type transferSource struct {
	// capture takes the node's state for a master at one LSN. It copies no
	// value; the source sorts the objects into transfer order afterwards,
	// outside whatever lock capture took.
	capture func(masterID uint64) (*stateImage, error)

	mu   sync.Mutex
	jobs map[uint64]*transferJob
}

type transferJob struct {
	img  *stateImage
	used time.Time
	// idle fires when the job may have outlived its receiver (see reap).
	idle *time.Timer
}

// serve answers one OpStatePull: the sender of every state transfer.
func (ts *transferSource) serve(_ context.Context, payload []byte) ([]byte, error) {
	req, err := decodePullRequest(payload)
	if err != nil {
		return nil, err
	}
	img, err := ts.image(req)
	if err != nil {
		return nil, err
	}
	if img == nil {
		return (&pullReply{JobLost: true}).encode(0), nil
	}
	var reply pullReply
	var size int
	reply.Chunk, size, reply.Next, reply.Done = img.cut(req.Cursor, transferChunkBytes-pullReplyHeader)
	if reply.Done {
		// The receiver has it all. Should this reply get lost, its retry
		// finds the job gone and starts over — rare, and still convergent.
		ts.release(req.Job)
	}
	return reply.encode(size), nil
}

// image returns the image req's job reads, capturing it when the request
// opens the job, or nil when the source holds no such job (any more) or
// the cursor is not one this job's image handed out.
func (ts *transferSource) image(req pullRequest) (*stateImage, error) {
	now := time.Now()
	ts.mu.Lock()
	job := ts.jobs[req.Job]
	if job != nil {
		job.used = now
	}
	ts.mu.Unlock()
	opening := req.Cursor == transferCursor{}
	switch {
	case job != nil && (opening || req.Cursor.LSN == job.img.LSN):
		return job.img, nil
	case !opening:
		return nil, nil
	}
	img, err := ts.capture(req.MasterID)
	if err != nil {
		return nil, err
	}
	kv.SortByKeyHash(img.Objects)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.jobs == nil {
		ts.jobs = make(map[uint64]*transferJob)
	}
	if old := ts.jobs[req.Job]; old != nil {
		old.idle.Stop() // a duplicate of the opening request captured twice
	}
	id := req.Job
	ts.jobs[id] = &transferJob{img: img, used: now, idle: time.AfterFunc(transferJobLifetime, func() { ts.reap(id) })}
	return img, nil
}

// reap drops a job nobody asked about for transferJobLifetime, or waits
// out the rest of the lifetime of one that was used since.
func (ts *transferSource) reap(id uint64) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	job := ts.jobs[id]
	if job == nil {
		return
	}
	if left := transferJobLifetime - time.Since(job.used); left > 0 {
		job.idle.Reset(left)
		return
	}
	delete(ts.jobs, id)
}

// release forgets a job.
func (ts *transferSource) release(id uint64) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if job := ts.jobs[id]; job != nil {
		job.idle.Stop()
		delete(ts.jobs, id)
	}
}

// stateSink is what a receiver installs into: a replica built aside.
type stateSink interface {
	// install adds one chunk.
	install(chunk *stateImage) error
	// finish seals the replica at the snapshot's LSN. Only now may the
	// receiver put it to use.
	finish(lsn kv.LSN) error
}

// transferStats describes one completed transfer.
type transferStats struct {
	Job    uint64
	LSN    kv.LSN
	Chunks int
	Bytes  int
	// Resumes counts the chunk requests that were re-sent with the cursor
	// the transfer had reached, ResumedFrom being the latest such cursor;
	// Restarts the times it began again because the source had lost the job.
	Resumes     int
	ResumedFrom transferCursor
	Restarts    int
}

// String is the transfer's line in the journal.
func (s transferStats) String() string {
	out := fmt.Sprintf("job %x: %d chunks, %d bytes, snapshot lsn %d", s.Job, s.Chunks, s.Bytes, s.LSN)
	if s.Resumes > 0 {
		out += fmt.Sprintf("; resumed %d× (last from %v)", s.Resumes, s.ResumedFrom)
	}
	if s.Restarts > 0 {
		out += fmt.Sprintf("; restarted %d×", s.Restarts)
	}
	return out
}

// errJobLost is the receiver's own error for a source that keeps losing
// the job.
var errJobLost = errors.New("state transfer: source lost the job")

// newTransferJob draws a job ID. Random, not counted: two receivers (a
// heal-driven replacement and an operator's, a retried recovery) must not
// collide at a source without having talked to each other.
func newTransferJob() uint64 { return rand.Uint64() | 1 }

// pullState is the receiver of every state transfer: it pulls the source's
// state for masterID chunk by chunk into a sink built by newSink and seals
// it. A chunk request that fails is re-sent with the same cursor, so the
// chunks already installed are never asked for again; when the source has
// lost the job the transfer starts over with a fresh sink under a new job.
// jrn records the transfer's start and end under ctx's trace.
func pullState[S stateSink](ctx context.Context, src *rpc.Peer, masterID uint64, newSink func() S, jrn *events.Journal) (sink S, stats transferStats, err error) {
	tc, _ := metrics.TraceFromContext(ctx)
	stats.Job = newTransferJob()
	sink = newSink()
	var cur transferCursor
	failures := 0
	jrn.RecordTrace(tc.TraceID, events.Event{
		Kind: events.KindStateTransferStart, MasterID: masterID,
		Detail: fmt.Sprintf("job %x from %s", stats.Job, src.Addr()),
	})
	defer func() {
		ev := events.Event{
			Kind: events.KindStateTransferDone, MasterID: masterID,
			Detail: fmt.Sprintf("%v from %s", stats, src.Addr()),
		}
		if err != nil {
			ev.Err = err.Error()
		}
		jrn.RecordTrace(tc.TraceID, ev)
	}()
	for {
		cctx, cancel := context.WithTimeout(ctx, transferChunkTimeout)
		out, cerr := src.Call(cctx, OpStatePull, (&pullRequest{MasterID: masterID, Job: stats.Job, Cursor: cur}).encode())
		cancel()
		var reply *pullReply
		if cerr == nil {
			reply, cerr = decodePullReply(out)
		}
		var serverErr *rpc.ServerError
		switch {
		case cerr != nil && (errors.As(cerr, &serverErr) || ctx.Err() != nil):
			// The source refused, or the caller gave up: retrying cannot help.
			return sink, stats, fmt.Errorf("state transfer from %s at %v: %w", src.Addr(), cur, cerr)
		case cerr != nil:
			if failures++; failures >= transferAttempts {
				return sink, stats, fmt.Errorf("state transfer from %s at %v: %w", src.Addr(), cur, cerr)
			}
			stats.Resumes, stats.ResumedFrom = stats.Resumes+1, cur
			continue
		case reply.JobLost:
			if failures++; failures >= transferAttempts {
				return sink, stats, fmt.Errorf("%w (%s)", errJobLost, src.Addr())
			}
			stats.Restarts++
			stats.Job, stats.Chunks, stats.Bytes = newTransferJob(), 0, 0
			sink, cur = newSink(), transferCursor{}
			continue
		}
		failures = 0
		if err := sink.install(&reply.Chunk); err != nil {
			return sink, stats, fmt.Errorf("state transfer from %s: install: %w", src.Addr(), err)
		}
		stats.LSN = reply.Chunk.LSN
		stats.Chunks++
		stats.Bytes += len(out)
		cur = reply.Next
		if reply.Done {
			if err := sink.finish(stats.LSN); err != nil {
				return sink, stats, fmt.Errorf("state transfer from %s: %w", src.Addr(), err)
			}
			return sink, stats, nil
		}
	}
}
