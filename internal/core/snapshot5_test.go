package core

// Contracts under test for v5 checkpoints: a chain of delta checkpoints
// restores to exactly the live engine's state; an Export bundle restores
// into a store-backed engine byte-equivalently to the storeless restore, and
// that engine's first checkpoint re-bases every section into the store;
// version errors are explicit about what the reader needed; Checkpoint
// refuses a storeless engine; and compaction driven by CollectManifestRefs
// never strands a restorable manifest.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"testing"

	"malgraph/internal/castore"
	"malgraph/internal/collect"
)

// engineStateBytes serialises the observable engine state deterministically:
// the full dataset export, the graph, and the report corpus. Two engines
// with equal state bytes are interchangeable for every read path.
func engineStateBytes(t *testing.T, e *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Dataset().WriteJSON(&buf, collect.ExportFull); err != nil {
		t.Fatal(err)
	}
	if err := e.Graph().G.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	reps := e.Reports()
	sort.Slice(reps, func(i, j int) bool { return reps[i].URL < reps[j].URL })
	if err := json.NewEncoder(&buf).Encode(reps); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func openTestStore(t *testing.T) *castore.Store {
	t.Helper()
	st, err := castore.Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// assertRestoredMatches compares a freshly-restored engine against the live
// engine it was checkpointed from. Restore has one cosmetic latitude: an
// ecosystem with zero similarity clusters may
// come back as a missing key or an empty slice where the live engine holds
// nil, so clusters compare empty-normalized; everything else must be exact.
func assertRestoredMatches(t *testing.T, restored, live *Engine, label string) {
	t.Helper()
	if a, b := graphSig(t, live.Graph()), graphSig(t, restored.Graph()); a != b {
		t.Errorf("%s: graph signature differs from the live engine", label)
	}
	if a, b := engineStateBytes(t, live), engineStateBytes(t, restored); !bytes.Equal(a, b) {
		t.Errorf("%s: state bytes differ from the live engine", label)
	}
	norm := func(e *Engine) map[string][]string {
		out := make(map[string][]string)
		for eco, cs := range e.Graph().SimilarClusters {
			for _, c := range cs {
				out[eco.String()] = append(out[eco.String()], strings.Join(c.Members, ","))
			}
			sort.Strings(out[eco.String()])
		}
		return out
	}
	if a, b := norm(live), norm(restored); !reflect.DeepEqual(a, b) {
		t.Errorf("%s: similar clusters differ:\n live %v\n restored %v", label, a, b)
	}
	if !reflect.DeepEqual(live.Graph().DuplicateGroups(), restored.Graph().DuplicateGroups()) {
		t.Errorf("%s: duplicate groups differ", label)
	}
}

// TestSegmentedCheckpointChainMatchesBuild ingests the corpus in batches
// with a checkpoint after every batch, restores from the final manifest
// (whose sections are chains of delta chunks by then), and requires the
// result to match the one-shot Build — then keeps the chain going: the
// restored engine ingests more, checkpoints again, and restores again.
func TestSegmentedCheckpointChainMatchesBuild(t *testing.T) {
	ds, reps := miniDataset(t)
	want, err := Build(ds, reps, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	store := openTestStore(t)
	eng := NewEngine(DefaultConfig())
	eng.AttachStore(store)

	third := len(ds.Entries) / 3
	cuts := []int{third, 2 * third, len(ds.Entries)}
	var manifest bytes.Buffer
	lo := 0
	for i, hi := range cuts {
		b := Batch{Entries: ds.Entries[lo:hi], At: ds.CollectedAt}
		if i < len(reps) {
			b.Reports = reps[i : i+1]
		}
		if i == len(cuts)-1 {
			b.Reports = reps[i:]
		}
		if _, err := eng.Ingest(b); err != nil {
			t.Fatal(err)
		}
		manifest.Reset()
		if err := eng.Checkpoint(&manifest); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}

	// The live batch-ingested engine matches the one-shot Build (the core
	// determinism contract); the restored engine must match the live one.
	assertEngineMatchesBuild(t, eng, want, "live-chain")
	restored, err := Restore(bytes.NewReader(manifest.Bytes()), store)
	if err != nil {
		t.Fatal(err)
	}
	assertRestoredMatches(t, restored, eng, "restored-from-chain")

	// The chain continues after restore: another delta lands, another
	// manifest, another restore — still equivalent.
	extra := Batch{Entries: ds.Entries[:third]} // replayed prefix must no-op
	if _, err := restored.Ingest(extra); err != nil {
		t.Fatal(err)
	}
	manifest.Reset()
	if err := restored.Checkpoint(&manifest); err != nil {
		t.Fatal(err)
	}
	again, err := Restore(bytes.NewReader(manifest.Bytes()), store)
	if err != nil {
		t.Fatal(err)
	}
	assertRestoredMatches(t, again, restored, "restored-twice")
}

// TestBundleRestoresIntoStoreBackedEngine: an Export bundle restores into
// a store-backed engine byte-equivalently to the storeless restore, the
// store-backed engine then finishes the corpus, and its first checkpoint
// re-bases every section into the store.
func TestBundleRestoresIntoStoreBackedEngine(t *testing.T) {
	ds, reps := miniDataset(t)
	want, err := Build(ds, reps, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	half := len(ds.Entries) / 2
	eng := NewEngine(DefaultConfig())
	if _, err := eng.Ingest(Batch{Entries: ds.Entries[:half], Reports: reps[:1], At: ds.CollectedAt}); err != nil {
		t.Fatal(err)
	}
	var bundle bytes.Buffer
	if err := eng.Export(&bundle); err != nil {
		t.Fatal(err)
	}

	plain, err := Restore(bytes.NewReader(bundle.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Store() != nil {
		t.Fatal("storeless restore attached a store")
	}
	store := openTestStore(t)
	backed, err := Restore(bytes.NewReader(bundle.Bytes()), store)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := engineStateBytes(t, plain), engineStateBytes(t, backed); !bytes.Equal(a, b) {
		t.Fatal("bundle restored into a store differs from the storeless restore")
	}
	if backed.Store() != store {
		t.Fatal("store not attached after bundle restore")
	}

	// First checkpoint after the restore re-bases everything into the
	// store; a fresh restore from it matches the finished corpus.
	if _, err := backed.Ingest(Batch{Entries: ds.Entries[half:], Reports: reps[1:]}); err != nil {
		t.Fatal(err)
	}
	var manifest bytes.Buffer
	if err := backed.Checkpoint(&manifest); err != nil {
		t.Fatal(err)
	}
	if store.Len() == 0 {
		t.Fatal("first checkpoint wrote no blobs to the store")
	}
	var man manifestSnapshot
	if err := json.Unmarshal(manifest.Bytes(), &man); err != nil {
		t.Fatal(err)
	}
	for _, name := range sectionNames {
		if refs := man.Sections[name]; len(refs) > 1 {
			t.Errorf("first checkpoint left section %s a chain of %d chunks, want one re-base", name, len(refs))
		}
	}
	// The live engine finished the corpus by real ingest, so it must match
	// Build; the restore of its manifest must match it.
	assertEngineMatchesBuild(t, backed, want, "bundle-backed-live")
	restored, err := Restore(bytes.NewReader(manifest.Bytes()), store)
	if err != nil {
		t.Fatal(err)
	}
	assertRestoredMatches(t, restored, backed, "bundle-backed-restored")
}

// TestRestoreVersionErrors pins the refusal messages: a v3/v4 monolithic
// document (or any other unknown version) is rejected naming its version,
// with or without a store, and a v5 manifest without its store points at
// RestoreEngineWithStore / -store.
func TestRestoreVersionErrors(t *testing.T) {
	for _, v := range []int{2, 3, 4, 6} {
		doc := fmt.Sprintf(`{"version":%d,"config":{},"dataset":{},"graph":{}}`, v)
		for _, st := range []*castore.Store{nil, openTestStore(t)} {
			_, err := Restore(strings.NewReader(doc), st)
			if err == nil {
				t.Fatalf("Restore accepted a version-%d document (store %v)", v, st != nil)
			}
			for _, want := range []string{fmt.Sprintf("version %d", v), "no longer read"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("version-%d error %q does not mention %q", v, err, want)
				}
			}
		}
	}

	// A real manifest without its store.
	ds, reps := miniDataset(t)
	store := openTestStore(t)
	eng := NewEngine(DefaultConfig())
	eng.AttachStore(store)
	if _, err := eng.Ingest(Batch{Entries: ds.Entries, Reports: reps, At: ds.CollectedAt}); err != nil {
		t.Fatal(err)
	}
	var manifest bytes.Buffer
	if err := eng.Checkpoint(&manifest); err != nil {
		t.Fatal(err)
	}
	_, err := Restore(bytes.NewReader(manifest.Bytes()), nil)
	if err == nil {
		t.Fatal("Restore accepted a v5 manifest without a store")
	}
	for _, want := range []string{"segmented manifest", "RestoreEngineWithStore", "-store"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("v5 error %q does not mention %q", err, want)
		}
	}
}

// TestCheckpointNeedsStore: a storeless engine refuses to checkpoint and
// writes nothing.
func TestCheckpointNeedsStore(t *testing.T) {
	ds, reps := miniDataset(t)
	eng := NewEngine(DefaultConfig())
	if _, err := eng.Ingest(Batch{Entries: ds.Entries, Reports: reps, At: ds.CollectedAt}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := eng.Checkpoint(&out); err == nil || !strings.Contains(err.Error(), "content store") {
		t.Fatalf("storeless Checkpoint error = %v, want a missing-store refusal", err)
	}
	if out.Len() != 0 {
		t.Fatalf("refused checkpoint wrote %d bytes", out.Len())
	}
}

// TestCompactionKeepsManifestRestorable drives several delta checkpoints,
// compacts the store down to exactly what CollectManifestRefs says the
// final manifest needs, and requires that manifest to still restore — the
// liveness contract serve's background compaction relies on.
func TestCompactionKeepsManifestRestorable(t *testing.T) {
	ds, reps := miniDataset(t)
	want, err := Build(ds, reps, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	store := openTestStore(t)
	eng := NewEngine(DefaultConfig())
	eng.AttachStore(store)
	third := len(ds.Entries) / 3
	var manifest bytes.Buffer
	for lo := 0; lo < len(ds.Entries); lo += third {
		hi := lo + third
		if hi > len(ds.Entries) {
			hi = len(ds.Entries)
		}
		b := Batch{Entries: ds.Entries[lo:hi], At: ds.CollectedAt}
		if lo == 0 {
			b.Reports = reps
		}
		if _, err := eng.Ingest(b); err != nil {
			t.Fatal(err)
		}
		manifest.Reset()
		if err := eng.Checkpoint(&manifest); err != nil {
			t.Fatal(err)
		}
	}
	segsBefore := store.SegmentCount()
	if segsBefore < 2 {
		t.Fatalf("want several segments before compaction, got %d", segsBefore)
	}

	// LiveRefs (the engine's view) must agree with CollectManifestRefs (the
	// manifest's view) — compaction unions both, but each alone must keep
	// the latest checkpoint restorable.
	fromManifest, err := CollectManifestRefs(bytes.NewReader(manifest.Bytes()), store)
	if err != nil {
		t.Fatal(err)
	}
	fromEngine := eng.LiveRefs()
	for ref := range fromManifest {
		if !fromEngine[ref] {
			t.Fatalf("manifest ref %s missing from engine LiveRefs", ref)
		}
	}

	compacted, err := store.Compact(fromManifest)
	if err != nil {
		t.Fatal(err)
	}
	if !compacted {
		t.Fatal("Compact reported nothing to do")
	}
	if store.SegmentCount() != 1 {
		t.Fatalf("SegmentCount after compaction = %d, want 1", store.SegmentCount())
	}
	assertEngineMatchesBuild(t, eng, want, "live-pre-compaction")
	restored, err := Restore(bytes.NewReader(manifest.Bytes()), store)
	if err != nil {
		t.Fatalf("restore after compaction: %v", err)
	}
	assertRestoredMatches(t, restored, eng, "post-compaction")

	// And the compacted store still accepts the next delta checkpoint.
	if _, err := eng.Ingest(Batch{Entries: ds.Entries[:third]}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Checkpoint(io.Discard); err != nil {
		t.Fatal(err)
	}
}
