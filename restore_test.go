package malgraph

// Store-backed restarts and early timeline epochs: a segmented checkpoint
// restores to byte-identical graph and Results JSON whatever the worker
// count, and an epoch taken before any activity distribution has samples
// still serializes its Results.

import (
	"bytes"
	"context"
	"io"
	"runtime"
	"testing"

	"malgraph/internal/castore"
	"malgraph/internal/collect"
)

// timelinePipeline returns a streaming pipeline at scale and its world's
// observations in timeline order, as an external publisher sends them.
func timelinePipeline(t *testing.T, scale float64) (*Pipeline, []collect.Observation) {
	t.Helper()
	p, err := NewStreamingPipeline(context.Background(), Config{Scale: scale}, 1)
	if err != nil {
		t.Fatal(err)
	}
	obs := collect.ObservationsFromSources(p.World.Sources)
	collect.SortObservations(obs)
	return p, obs
}

// TestEarlyTimelineEpochResultsJSON: the first slices of the observation
// timeline leave some distributions empty — occurrence counts, active
// periods — whose maximum, mean and median are NaN; every epoch's Results
// JSON must still encode.
func TestEarlyTimelineEpochResultsJSON(t *testing.T) {
	p, obs := timelinePipeline(t, 0.05)
	const batches, early = 150, 30
	for i := 0; i < early; i++ {
		lo, hi := i*len(obs)/batches, (i+1)*len(obs)/batches
		if _, _, err := p.AppendExternal(obs[lo:hi], nil); err != nil {
			t.Fatal(err)
		}
		if _, err := p.CurrentEpoch().ResultsJSON(); err != nil {
			t.Fatalf("epoch after batch %d/%d: Results JSON: %v", i+1, batches, err)
		}
	}
}

func TestStoreRestoreIdenticalAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("streams a corpus through several checkpoints")
	}
	const scale = 0.05
	p, obs := timelinePipeline(t, scale)
	store, err := castore.Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	p.AttachStore(store)
	_, reps := p.Source()
	var manifest []byte
	const batches = 6
	for i := 0; i < batches; i++ {
		lo, hi := i*len(obs)/batches, (i+1)*len(obs)/batches
		rlo, rhi := i*len(reps)/batches, (i+1)*len(reps)/batches
		if _, _, err := p.AppendExternal(obs[lo:hi], reps[rlo:rhi]); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Checkpoint(func(snapshot func(io.Writer) error) error {
			var buf bytes.Buffer
			err := snapshot(&buf)
			manifest = buf.Bytes()
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if i == batches/2 {
			// Restore then reads a mix of merged and appended segments.
			if _, err := store.Compact(p.LiveRefs()); err != nil {
				t.Fatal(err)
			}
		}
	}

	restored := func(procs int) (graphJSON, resultsJSON []byte) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		q, err := NewStreamingPipeline(context.Background(), Config{Scale: scale}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := q.RestoreEngineWithStore(bytes.NewReader(manifest), store); err != nil {
			t.Fatal(err)
		}
		var g bytes.Buffer
		if err := q.Graph.G.WriteJSON(&g); err != nil {
			t.Fatal(err)
		}
		res, err := q.CurrentEpoch().ResultsJSON()
		if err != nil {
			t.Fatal(err)
		}
		return g.Bytes(), res
	}
	seqGraph, seqResults := restored(1)
	var liveGraph bytes.Buffer
	if err := p.Graph.G.WriteJSON(&liveGraph); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqGraph, liveGraph.Bytes()) {
		t.Fatal("restored graph JSON differs from the live pipeline's")
	}
	for _, procs := range []int{2, 8} {
		g, res := restored(procs)
		if !bytes.Equal(g, seqGraph) {
			t.Errorf("GOMAXPROCS=%d: graph JSON differs from the GOMAXPROCS=1 restore", procs)
		}
		if !bytes.Equal(res, seqResults) {
			t.Errorf("GOMAXPROCS=%d: Results JSON differs from the GOMAXPROCS=1 restore", procs)
		}
	}
}
