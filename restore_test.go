package malgraph

// Store-backed restarts, pure exports and early timeline epochs: a
// checkpoint restores to byte-identical graph and Results JSON whatever the
// worker count, an export leaves every piece of checkpoint state untouched,
// and an epoch taken before any activity distribution has samples still
// serializes its Results.

import (
	"bytes"
	"context"
	"io"
	"reflect"
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

// TestSnapshotEngineIsPure: exporting a store-attached pipeline with
// pending ingest dirt leaves its store, chunk chains, graph journal and
// next checkpoint exactly as an untouched twin's; and the export bytes
// depend only on engine state — identical for a storeless twin and under
// any GOMAXPROCS.
func TestSnapshotEngineIsPure(t *testing.T) {
	const scale = 0.02
	const batches = 3
	twin := func(withStore bool) (*Pipeline, *castore.Store) {
		p, obs := timelinePipeline(t, scale)
		var store *castore.Store
		if withStore {
			var err error
			if store, err = castore.Open(t.TempDir(), nil); err != nil {
				t.Fatal(err)
			}
			p.AttachStore(store)
		}
		_, reps := p.Source()
		for i := 0; i < batches; i++ {
			lo, hi := i*len(obs)/batches, (i+1)*len(obs)/batches
			rlo, rhi := i*len(reps)/batches, (i+1)*len(reps)/batches
			if _, _, err := p.AppendExternal(obs[lo:hi], reps[rlo:rhi]); err != nil {
				t.Fatal(err)
			}
			// Checkpoint all but the last batch, which stays pending dirt.
			if withStore && i < batches-1 {
				if _, err := p.Checkpoint(func(snapshot func(io.Writer) error) error {
					return snapshot(io.Discard)
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		return p, store
	}
	exported, exportedStore := twin(true)
	untouched, untouchedStore := twin(true)
	storeless, _ := twin(false)

	export := func(p *Pipeline, procs int) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var buf bytes.Buffer
		if err := p.SnapshotEngine(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	bundle := export(exported, 1)
	if again := export(exported, 8); !bytes.Equal(again, bundle) {
		t.Error("export bytes differ between GOMAXPROCS=1 and 8")
	}
	if plain := export(storeless, 1); !bytes.Equal(plain, bundle) {
		t.Error("export bytes differ between the store-attached and the storeless twin")
	}

	if a, b := exportedStore.Len(), untouchedStore.Len(); a != b {
		t.Errorf("export changed store.Len: %d, untouched twin %d", a, b)
	}
	if a, b := exportedStore.SegmentCount(), untouchedStore.SegmentCount(); a != b {
		t.Errorf("export changed SegmentCount: %d, untouched twin %d", a, b)
	}
	if a, b := exported.LiveRefs(), untouched.LiveRefs(); !reflect.DeepEqual(a, b) {
		t.Errorf("export changed LiveRefs: %d refs, untouched twin %d", len(a), len(b))
	}
	if a, b := exported.Graph.G.JournalLen(), untouched.Graph.G.JournalLen(); a != b || a == 0 {
		t.Errorf("graph journal after export %d ops, untouched twin %d (want equal and non-empty)", a, b)
	}
	checkpoint := func(p *Pipeline) []byte {
		var buf bytes.Buffer
		if _, err := p.Checkpoint(func(snapshot func(io.Writer) error) error {
			return snapshot(&buf)
		}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := checkpoint(exported), checkpoint(untouched); !bytes.Equal(a, b) {
		t.Error("the checkpoint after an export writes a different manifest than the untouched twin's")
	}
}
