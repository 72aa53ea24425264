package core

import (
	"context"

	"curp/internal/witness"
)

// The in-process serving surface, for deployments with no RPC layer between
// Client and Engine (the §5.4 durable cache, the §A.2 consensus group).

// LocalMaster adapts an Engine to MasterAPI.
type LocalMaster struct{ E *Engine }

// UpdateBatch implements MasterAPI: the batch executes in order, each request
// succeeds or fails on its own, and all its conflicts wait on ONE sync.
func (m LocalMaster) UpdateBatch(ctx context.Context, reqs []*Request) ([]*Reply, error) {
	outs := make([]Outcome, len(reqs))
	for i, req := range reqs {
		outs[i] = m.E.Execute(ctx, req, Speculative)
	}
	m.E.Reveal(ctx, outs)
	replies := make([]*Reply, len(outs))
	for i := range outs {
		replies[i] = &outs[i].Reply
	}
	return replies, nil
}

// Read implements MasterAPI: a linearizable read, synced first if it must be.
func (m LocalMaster) Read(ctx context.Context, req *Request) (*Reply, error) {
	reply, _ := m.E.Read(ctx, req)
	return &reply, nil
}

// Sync implements MasterAPI: the client's slow-path sync RPC.
func (m LocalMaster) Sync(ctx context.Context) error { return m.E.Sync(ctx) }

// WitnessAdapter adapts an in-process witness.Witness to WitnessAPI.
type WitnessAdapter struct{ W *witness.Witness }

func (a WitnessAdapter) RecordBatch(_ context.Context, masterID uint64, recs []witness.Record) ([]witness.RecordResult, error) {
	return a.W.RecordBatch(masterID, recs), nil
}

// StartRecordBatch implements RecordStarter, eagerly: an in-process record
// has no round trip to overlap, so it simply runs.
func (a WitnessAdapter) StartRecordBatch(_ context.Context, masterID uint64, recs []witness.Record) RecordCall {
	return DoneRecord(a.W.RecordBatch(masterID, recs), nil)
}
func (a WitnessAdapter) Commutes(_ context.Context, keyHashes []uint64) (bool, error) {
	return a.W.Commutes(keyHashes), nil
}
func (a WitnessAdapter) Drop(_ context.Context, _ uint64, keys []witness.GCKey) error {
	return a.W.DropRecords(keys)
}
