package dstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"curp/internal/rifl"
)

// FsyncPolicy is when the AOF flushes to stable storage, mirroring Redis's
// appendfsync configuration.
type FsyncPolicy int

const (
	// FsyncAlways syncs before every append returns — Redis's only
	// consistent-durable mode, the 10–100× penalty CURP hides (§5.4).
	FsyncAlways FsyncPolicy = iota
	// FsyncOnDemand syncs only when Sync is called — the CURP mode, where
	// the log is written asynchronously in the background and witnesses
	// carry durability in the meantime.
	FsyncOnDemand
	// FsyncNever never syncs (the non-durable baseline).
	FsyncNever
)

// String names the policy.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncOnDemand:
		return "on-demand"
	case FsyncNever:
		return "never"
	}
	return "unknown"
}

// Device abstracts the stable storage under the AOF so tests and the
// simulator can model fsync latency without real disks.
type Device interface {
	io.Writer
	// Sync flushes buffered writes to stable storage.
	Sync() error
}

// FileDevice is a real file-backed device.
type FileDevice struct{ F *os.File }

// Write implements Device.
func (d FileDevice) Write(p []byte) (int, error) { return d.F.Write(p) }

// Sync implements Device.
func (d FileDevice) Sync() error { return d.F.Sync() }

// MemDevice is an in-memory device with a configurable fsync latency,
// standing in for the paper's NVMe SSDs (50–100µs fsync). It tracks which
// prefix of the log is "durable" so crash tests can drop the tail.
type MemDevice struct {
	mu          sync.Mutex
	buf         []byte
	durable     int
	FsyncDelay  time.Duration
	SyncCount   int
	FailNextOps int // inject write/sync failures
}

// Write implements Device.
func (d *MemDevice) Write(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.FailNextOps > 0 {
		d.FailNextOps--
		return 0, errors.New("memdevice: injected write failure")
	}
	d.buf = append(d.buf, p...)
	return len(p), nil
}

// Sync implements Device.
func (d *MemDevice) Sync() error {
	d.mu.Lock()
	if d.FailNextOps > 0 {
		d.FailNextOps--
		d.mu.Unlock()
		return errors.New("memdevice: injected sync failure")
	}
	delay := d.FsyncDelay
	d.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	d.mu.Lock()
	d.durable = len(d.buf)
	d.SyncCount++
	d.mu.Unlock()
	return nil
}

// DurableBytes returns the synced prefix (what survives a "crash").
func (d *MemDevice) DurableBytes() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]byte(nil), d.buf[:d.durable]...)
}

// Bytes returns the full written log including the unsynced tail.
func (d *MemDevice) Bytes() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]byte(nil), d.buf...)
}

// AOF is the append-only command log. Each record carries the command AND
// its RIFL RPC ID (paper §3.3: "if a system replicates client requests ...
// each request already contains its ID"), so recovery can rebuild the
// completion-record table and filter witness replays of commands that
// already reached the durable log. Safe for concurrent use.
type AOF struct {
	mu     sync.Mutex
	dev    Device
	policy FsyncPolicy
	// appended counts commands appended; synced counts commands known
	// durable.
	appended uint64
	synced   uint64
}

// NewAOF creates an append-only file over dev with the given policy.
func NewAOF(dev Device, policy FsyncPolicy) *AOF {
	return &AOF{dev: dev, policy: policy}
}

// Append writes one command record tagged with its RIFL identity and,
// under FsyncAlways, syncs before returning.
func (a *AOF) Append(cmd *Command, id rifl.RPCID) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	body := cmd.Encode()
	var hdr [20]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(body)))
	binary.LittleEndian.PutUint64(hdr[4:], uint64(id.Client))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(id.Seq))
	if _, err := a.dev.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := a.dev.Write(body); err != nil {
		return err
	}
	a.appended++
	if a.policy == FsyncAlways {
		if err := a.dev.Sync(); err != nil {
			return err
		}
		a.synced = a.appended
	}
	return nil
}

// Sync flushes to stable storage (no-op counters under FsyncNever).
func (a *AOF) Sync() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.policy == FsyncNever {
		return nil
	}
	if err := a.dev.Sync(); err != nil {
		return err
	}
	a.synced = a.appended
	return nil
}

// Appended returns the number of commands appended.
func (a *AOF) Appended() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.appended
}

// Synced returns the number of commands known durable.
func (a *AOF) Synced() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.synced
}

// AOFRecord is one decoded log record.
type AOFRecord struct {
	ID  rifl.RPCID
	Cmd *Command
}

// DecodeLog parses an AOF byte stream, ignoring a truncated trailing
// record (torn write), as in Redis's aof-load-truncated behaviour.
func DecodeLog(log []byte) ([]AOFRecord, error) {
	var out []AOFRecord
	for len(log) >= 20 {
		sz := binary.LittleEndian.Uint32(log)
		if int(sz) > len(log)-20 {
			break // torn tail
		}
		id := rifl.RPCID{
			Client: rifl.ClientID(binary.LittleEndian.Uint64(log[4:])),
			Seq:    rifl.Seq(binary.LittleEndian.Uint64(log[12:])),
		}
		cmd, err := DecodeCommand(log[20 : 20+sz])
		if err != nil {
			return nil, fmt.Errorf("dstore: corrupt AOF record %d: %w", len(out), err)
		}
		out = append(out, AOFRecord{ID: id, Cmd: cmd})
		log = log[20+sz:]
	}
	return out, nil
}

// Replay rebuilds a fresh store (and completion-record tracker) from an
// AOF byte stream — the recovery path. It returns the store, the rebuilt
// tracker, and the number of commands applied.
func Replay(log []byte) (*Store, *rifl.Tracker, int, error) {
	records, err := DecodeLog(log)
	if err != nil {
		return nil, nil, 0, err
	}
	s := NewStore()
	tracker := rifl.NewTracker()
	for i, rec := range records {
		res, err := s.Apply(rec.Cmd)
		if err != nil {
			return nil, nil, i, fmt.Errorf("dstore: replay record %d: %w", i, err)
		}
		if !rec.ID.IsZero() {
			tracker.Record(rec.ID, res.Encode())
		}
	}
	return s, tracker, len(records), nil
}
