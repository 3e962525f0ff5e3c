package core

// Restore decodes chunks and artifacts concurrently; these tests pin that
// the worker count stays invisible: one manifest and store restore to
// byte-identical state under GOMAXPROCS=1 and N, and a corrupt chunk
// reports the same error either way — the one a sequential decode meets
// first.

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"malgraph/internal/castore"
)

// checkpointChain ingests the mini corpus in thirds with a segmented
// checkpoint after each, so every section is a chain of several chunks,
// and returns the last manifest with its store and engine.
func checkpointChain(t *testing.T) ([]byte, *castore.Store, *Engine) {
	t.Helper()
	ds, reps := miniDataset(t)
	store := openTestStore(t)
	eng := NewEngine(DefaultConfig())
	eng.AttachStore(store)
	third := len(ds.Entries) / 3
	var manifest bytes.Buffer
	for i, lo := range []int{0, third, 2 * third} {
		hi := lo + third
		if i == 2 {
			hi = len(ds.Entries)
		}
		b := Batch{Entries: ds.Entries[lo:hi], At: ds.CollectedAt}
		if i == 0 {
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
	return manifest.Bytes(), store, eng
}

// restoreAt restores manifest from store with GOMAXPROCS set to procs.
func restoreAt(procs int, manifest []byte, store *castore.Store) (*Engine, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return Restore(bytes.NewReader(manifest), store)
}

func graphJSON(t *testing.T, e *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Graph().G.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRestoreIdenticalAcrossWorkerCounts(t *testing.T) {
	manifest, store, live := checkpointChain(t)
	seq, err := restoreAt(1, manifest, store)
	if err != nil {
		t.Fatal(err)
	}
	assertRestoredMatches(t, seq, live, "GOMAXPROCS=1")
	for _, procs := range []int{2, 8} {
		par, err := restoreAt(procs, manifest, store)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(graphJSON(t, seq), graphJSON(t, par)) {
			t.Errorf("GOMAXPROCS=%d: graph JSON differs from the sequential restore", procs)
		}
		if !bytes.Equal(engineStateBytes(t, seq), engineStateBytes(t, par)) {
			t.Errorf("GOMAXPROCS=%d: state bytes differ from the sequential restore", procs)
		}
		// The restored chain logs carry on identically: the next
		// checkpoint of each writes the same manifest.
		var a, b bytes.Buffer
		if err := seq.Checkpoint(&a); err != nil {
			t.Fatal(err)
		}
		if err := par.Checkpoint(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("GOMAXPROCS=%d: next checkpoint manifest differs", procs)
		}
	}
}

// TestRestoreCorruptChunkSameErrorAcrossWorkerCounts swaps chunks in the
// middle of section chains for blobs that are valid store content but not
// valid chunks. The restore must fail with the error of the earliest
// corrupt chunk in the sequential order — graph before dataset before
// items — under any worker count.
func TestRestoreCorruptChunkSameErrorAcrossWorkerCounts(t *testing.T) {
	manifest, store, _ := checkpointChain(t)
	var man manifestSnapshot
	if err := json.Unmarshal(manifest, &man); err != nil {
		t.Fatal(err)
	}
	corrupt := func(section, data string) string {
		t.Helper()
		refs := man.Sections[section]
		if len(refs) < 2 {
			t.Fatalf("section %s has %d chunks, want a chain", section, len(refs))
		}
		key := castore.KeyOf([]byte(data))
		if _, err := store.Append([]castore.Blob{{Key: key, Data: []byte(data)}}); err != nil {
			t.Fatal(err)
		}
		refs = append([]string(nil), refs...)
		refs[len(refs)/2] = key
		man.Sections[section] = refs
		return key
	}
	restoreErr := func(procs int) string {
		t.Helper()
		b, err := json.Marshal(&man)
		if err != nil {
			t.Fatal(err)
		}
		_, err = restoreAt(procs, b, store)
		if err == nil {
			t.Fatalf("GOMAXPROCS=%d: restore accepted a corrupt chunk", procs)
		}
		return err.Error()
	}
	check := func(want string) {
		t.Helper()
		seq := restoreErr(1)
		if !strings.Contains(seq, want) {
			t.Fatalf("sequential error %q does not name %q", seq, want)
		}
		for _, procs := range []int{2, 8} {
			if got := restoreErr(procs); got != seq {
				t.Fatalf("GOMAXPROCS=%d error %q, sequential %q", procs, got, seq)
			}
		}
	}

	itemsKey := corrupt(sectionItems, `{"set":"not a map"}`)
	check("restore items chunk " + itemsKey)
	dsKey := corrupt(sectionDataset, `{"del":{"not":"a list"}}`)
	check("restore dataset chunk " + dsKey)
	graphKey := corrupt(sectionGraph, `{"ops":[{"op":"edge","from":7}]}`)
	check("restore graph chunk " + graphKey)
}
