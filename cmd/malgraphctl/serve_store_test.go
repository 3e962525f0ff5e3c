package main

// Serve-level checkpoints: the recovery sequence — restore manifest
// against the content store, replay the journal suffix, attach — must carry
// state across restarts; the GET /api/v1/snapshot bundle must round-trip
// into a fresh pipeline without checkpointing anything; retention must keep
// the configured number of manifests; and a kill mid-segment-write or
// mid-compaction must never lose a checkpoint.

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"malgraph"
	"malgraph/internal/castore"
	"malgraph/internal/faultinject"
	"malgraph/internal/wal"
)

// recoverStorePipeline performs cmdServe's startup sequence against store:
// restore the manifest through it if published (or attach it cold), replay
// the journal suffix, attach. Caller closes the journal.
func recoverStorePipeline(t *testing.T, batches int, snapshotPath, walDir string, store *castore.Store) (*malgraph.Pipeline, *wal.Log) {
	t.Helper()
	p, err := malgraph.NewStreamingPipeline(context.Background(), malgraph.Config{Scale: 0.02}, batches)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warmStart(p, snapshotPath, store); err != nil {
		t.Fatalf("restore %s: %v", snapshotPath, err)
	}
	j, err := wal.Open(walDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ReplayJournal(j); err != nil {
		t.Fatalf("replay: %v", err)
	}
	p.AttachJournal(j)
	return p, j
}

// TestServeStoreRecoveryAcrossRestarts is the segmented mirror of
// TestServeWALRecoveryAcrossRestarts: generation 1 crashes with journal
// only, generation 2 recovers and auto-checkpoints through the store
// (publishing a v5 manifest and truncating the journal), generation 3
// recovers from manifest + store alone and finishes the feed — matching an
// uninterrupted drain.
func TestServeStoreRecoveryAcrossRestarts(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build")
	}
	dir := t.TempDir()
	snapshotPath := filepath.Join(dir, "state.json")
	walDir := filepath.Join(dir, "wal")
	storeDir := filepath.Join(dir, "store")

	// Generation 1: store attached cold, journaled, no checkpoint taken.
	store1, err := castore.Open(storeDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1 := newTestServer(t, 4, snapshotPath)
	s1.p.AttachStore(store1)
	s1.store = store1
	j1, err := wal.Open(walDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1.p.AttachJournal(j1)
	s1.wal = j1
	s1.checkpointBytes = 1 << 30 // never auto-checkpoint in this generation

	postJSON(t, ts1.URL+"/api/v1/ingest", http.StatusOK)
	postJSON(t, ts1.URL+"/api/v1/ingest", http.StatusOK)
	stats1 := s1.p.Stats()
	ts1.Close()
	if err := j1.Close(); err != nil { // the crash: journal only, empty store
		t.Fatal(err)
	}
	if store1.Len() != 0 {
		t.Fatalf("no checkpoint ran, yet the store holds %d blobs", store1.Len())
	}

	// Generation 2: journal-only recovery, then an auto-checkpoint writes
	// the first (full re-base) manifest into the store.
	store2, err := castore.Open(storeDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, j2 := recoverStorePipeline(t, 4, snapshotPath, walDir, store2)
	if p2.LastSeq() != 2 {
		t.Fatalf("recovered seq %d, want 2", p2.LastSeq())
	}
	if got := p2.Stats(); !reflect.DeepEqual(got, stats1) {
		t.Fatalf("recovered stats %+v\nwant %+v", got, stats1)
	}
	s2 := newServer(p2, snapshotPath)
	s2.store = store2
	s2.wal = j2
	s2.checkpointBytes = 1 // checkpoint after every journaled byte
	ts2 := httptest.NewServer(s2.handler())

	postJSON(t, ts2.URL+"/api/v1/ingest", http.StatusOK)
	manifest1, err := os.ReadFile(snapshotPath)
	if err != nil {
		t.Fatalf("auto-checkpoint did not publish the manifest: %v", err)
	}
	if !bytes.Contains(manifest1, []byte(`"version":5`)) {
		t.Fatalf("store-backed checkpoint wrote a non-v5 snapshot: %.80s", manifest1)
	}
	if store2.Len() == 0 {
		t.Fatal("checkpoint appended no blobs to the store")
	}
	if sz := j2.Size(); sz != 0 {
		t.Fatalf("journal not truncated after checkpoint: %d bytes", sz)
	}

	// A second checkpointed ingest appends a delta segment — the manifest
	// stays small while the chunk chain grows — and archives the previous
	// manifest under retention.
	blobsAfterFull := store2.Len()
	postJSON(t, ts2.URL+"/api/v1/ingest", http.StatusOK)
	if got := store2.SegmentCount(); got < 2 {
		t.Fatalf("second checkpoint did not append a delta segment: %d segment(s)", got)
	}
	if store2.Len() <= blobsAfterFull {
		t.Fatal("delta checkpoint added no chunks")
	}
	if _, err := os.Stat(archiveName(snapshotPath, 1)); err != nil {
		t.Fatalf("previous manifest was not archived: %v", err)
	}
	stats2 := s2.p.Stats()
	ts2.Close()
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	// Generation 3: manifest + store only (journal empty). The feed is
	// drained already (4 batches, all ingested); state must match an
	// uninterrupted drain.
	store3, err := castore.Open(storeDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	p3, j3 := recoverStorePipeline(t, 4, snapshotPath, walDir, store3)
	defer j3.Close()
	if p3.LastSeq() != 4 {
		t.Fatalf("manifest-only recovery seq %d, want 4", p3.LastSeq())
	}
	if got := p3.Stats(); !reflect.DeepEqual(got, stats2) {
		t.Fatalf("manifest-only recovered stats %+v\nwant %+v", got, stats2)
	}
	if pending := p3.PendingBatches(); pending != 0 {
		t.Fatalf("feed not drained after recovery: %d pending", pending)
	}
	ref, err := malgraph.NewStreamingPipeline(context.Background(), malgraph.Config{Scale: 0.02}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for ref.PendingBatches() > 0 {
		if _, _, err := ref.AppendNext(); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := p3.Stats(), ref.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restarted drain stats %+v\nwant uninterrupted %+v", got, want)
	}
}

// TestServeSnapshotRetention drives checkpoints past the retention budget
// and checks the archive window slides: the newest retain-1 archives stay,
// older ones are pruned.
func TestServeSnapshotRetention(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build")
	}
	dir := t.TempDir()
	snapshotPath := filepath.Join(dir, "state.json")
	store, err := castore.Open(filepath.Join(dir, "store"), nil)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, 4, snapshotPath)
	s.p.AttachStore(store)
	s.store = store
	s.snapshotRetain = 2
	for i := 0; i < 4; i++ {
		postJSON(t, ts.URL+"/api/v1/ingest", http.StatusOK)
		postJSON(t, ts.URL+"/api/v1/snapshot", http.StatusOK)
	}
	// 4 checkpoints with retain=2: live manifest + exactly the newest
	// archive (generation 3) survive.
	gens, err := s.archiveGens()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 1 || gens[0] != 3 {
		t.Fatalf("retained archive generations = %v, want [3]", gens)
	}
	if _, err := os.Stat(snapshotPath); err != nil {
		t.Fatalf("live manifest missing: %v", err)
	}
	// The retained archive is itself restorable against the store.
	f, err := os.Open(archiveName(snapshotPath, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p, err := malgraph.NewStreamingPipeline(context.Background(), malgraph.Config{Scale: 0.02}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RestoreEngineWithStore(f, store); err != nil {
		t.Fatalf("archived manifest does not restore: %v", err)
	}
}

// TestServeSnapshotBundleRoundTrip: GET /api/v1/snapshot exports the
// current state — including an ingest no checkpoint has covered — as a
// bundle that core.Restore (via RestoreEngine) reads back into a fresh
// pipeline matching the server's state; the restored pipeline re-exports
// the same bytes; and a truncated bundle fails loudly.
func TestServeSnapshotBundleRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build")
	}
	dir := t.TempDir()
	snapshotPath := filepath.Join(dir, "state.json")
	s, ts := newTestServer(t, 4, snapshotPath)
	// Two checkpointed ingests build a multi-segment store; the third
	// ingest is covered by no checkpoint — the GET must export it anyway.
	postJSON(t, ts.URL+"/api/v1/ingest", http.StatusOK)
	postJSON(t, ts.URL+"/api/v1/snapshot", http.StatusOK)
	postJSON(t, ts.URL+"/api/v1/ingest", http.StatusOK)
	postJSON(t, ts.URL+"/api/v1/snapshot", http.StatusOK)
	postJSON(t, ts.URL+"/api/v1/ingest", http.StatusOK)
	wantStats := s.p.Stats()

	resp, err := http.Get(ts.URL + "/api/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET snapshot: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("bundle Content-Type = %q", ct)
	}
	bundle, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	p, err := malgraph.NewStreamingPipeline(context.Background(), malgraph.Config{Scale: 0.02}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RestoreEngine(bytes.NewReader(bundle)); err != nil {
		t.Fatalf("restore from bundle: %v", err)
	}
	if got := p.Stats(); !reflect.DeepEqual(got, wantStats) {
		t.Fatalf("bundle-restored stats %+v\nwant %+v", got, wantStats)
	}
	var again bytes.Buffer
	if err := p.SnapshotEngine(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), bundle) {
		t.Fatal("the bundle-restored pipeline re-exports different bytes")
	}

	// A truncated bundle must fail loudly, not produce a silent short engine.
	if err := p.RestoreEngine(bytes.NewReader(bundle[:len(bundle)-10])); err == nil {
		t.Fatal("truncated bundle restored without error")
	}
}

// TestServeSnapshotGetIsPure: a GET /api/v1/snapshot before any checkpoint
// publishes no snapshot file, writes nothing into the store and leaves the
// journal untouched — exporting is not checkpointing.
func TestServeSnapshotGetIsPure(t *testing.T) {
	dir := t.TempDir()
	snapshotPath := filepath.Join(dir, "state.json")
	s, ts := newTestServer(t, 2, snapshotPath)
	j, err := wal.Open(filepath.Join(dir, "wal"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	s.p.AttachJournal(j)
	s.wal = j
	postJSON(t, ts.URL+"/api/v1/ingest", http.StatusOK)
	journalSize := j.Size()
	journalOps := s.p.Graph.G.JournalLen()
	if journalSize == 0 || journalOps == 0 {
		t.Fatalf("ingest journaled %d bytes and %d graph ops, want both", journalSize, journalOps)
	}

	resp, err := http.Get(ts.URL + "/api/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET snapshot: status %d", resp.StatusCode)
	}
	if _, err := os.Stat(snapshotPath); !os.IsNotExist(err) {
		t.Fatalf("GET published a snapshot file: %v", err)
	}
	if n := s.store.Len(); n != 0 {
		t.Fatalf("GET wrote %d blobs into the store", n)
	}
	if sz := j.Size(); sz != journalSize {
		t.Fatalf("GET changed the journal: %d bytes, want %d", sz, journalSize)
	}
	if ops := s.p.Graph.G.JournalLen(); ops != journalOps {
		t.Fatalf("GET changed the graph journal: %d ops, want %d", ops, journalOps)
	}
}

// TestServeCheckpointCrashMidSegmentWrite kills the store's segment write
// under a checkpoint (injected fsync failure): the checkpoint must fail
// without publishing a manifest or truncating the journal, the server keeps
// serving, the retried checkpoint succeeds, and a restart recovers exactly.
func TestServeCheckpointCrashMidSegmentWrite(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build")
	}
	dir := t.TempDir()
	snapshotPath := filepath.Join(dir, "state.json")
	walDir := filepath.Join(dir, "wal")
	storeDir := filepath.Join(dir, "store")
	fi := faultinject.NewFS(nil) // store-only faults; the journal uses the real fs
	store, err := castore.Open(storeDir, fi)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, 4, snapshotPath)
	s.p.AttachStore(store)
	s.store = store
	j, err := wal.Open(walDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.p.AttachJournal(j)
	s.wal = j

	postJSON(t, ts.URL+"/api/v1/ingest", http.StatusOK)
	journalSize := j.Size()
	if journalSize == 0 {
		t.Fatal("ingest journaled nothing")
	}

	fi.FailSync(1) // the checkpoint's segment fsync
	out := postJSON(t, ts.URL+"/api/v1/snapshot", http.StatusInternalServerError)
	if msg, _ := out["error"].(string); !strings.Contains(msg, "injected fault") {
		t.Fatalf("checkpoint error = %v, want the injected store failure", out["error"])
	}
	if _, err := os.Stat(snapshotPath); !os.IsNotExist(err) {
		t.Fatalf("failed checkpoint published a manifest: %v", err)
	}
	if sz := j.Size(); sz != journalSize {
		t.Fatalf("failed checkpoint changed the journal: %d bytes, want %d", sz, journalSize)
	}

	// Fault cleared: ingest and checkpoint proceed, nothing was poisoned.
	postJSON(t, ts.URL+"/api/v1/ingest", http.StatusOK)
	postJSON(t, ts.URL+"/api/v1/snapshot", http.StatusOK)
	if sz := j.Size(); sz != 0 {
		t.Fatalf("journal not truncated after recovered checkpoint: %d bytes", sz)
	}
	stats := s.p.Stats()
	ts.Close()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := castore.Open(storeDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, j2 := recoverStorePipeline(t, 4, snapshotPath, walDir, store2)
	defer j2.Close()
	if got := p2.Stats(); !reflect.DeepEqual(got, stats) {
		t.Fatalf("recovered stats %+v\nwant %+v", got, stats)
	}
}

// TestServeCompactionCrashKeepsManifestsRestorable interrupts the
// serve-level compaction sweep (injected fsync failure on the merged
// segment): the live manifest and the retained archive must stay
// restorable, and the retried sweep must finish and preserve both.
func TestServeCompactionCrashKeepsManifestsRestorable(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline build")
	}
	dir := t.TempDir()
	snapshotPath := filepath.Join(dir, "state.json")
	storeDir := filepath.Join(dir, "store")
	fi := faultinject.NewFS(nil)
	store, err := castore.Open(storeDir, fi)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, 4, snapshotPath)
	s.p.AttachStore(store)
	s.store = store

	// Build up a multi-segment store: checkpoint after every ingest.
	for i := 0; i < 4; i++ {
		postJSON(t, ts.URL+"/api/v1/ingest", http.StatusOK)
		postJSON(t, ts.URL+"/api/v1/snapshot", http.StatusOK)
	}
	if store.SegmentCount() < 2 {
		t.Fatalf("want a multi-segment store, got %d", store.SegmentCount())
	}

	restorable := func(path string) error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		reopened, err := castore.Open(storeDir, nil)
		if err != nil {
			return err
		}
		p, err := malgraph.NewStreamingPipeline(context.Background(), malgraph.Config{Scale: 0.02}, 4)
		if err != nil {
			return err
		}
		return p.RestoreEngineWithStore(f, reopened)
	}

	// The sweep dies at the merged segment's fsync — all old segments stay.
	fi.FailSync(1)
	s.checkpointMu.Lock()
	err = s.compactStore()
	s.checkpointMu.Unlock()
	if err == nil {
		t.Fatal("compaction succeeded despite injected failure")
	}
	for _, path := range []string{snapshotPath, archiveName(snapshotPath, 3)} {
		if err := restorable(path); err != nil {
			t.Fatalf("after interrupted compaction, %s does not restore: %v", path, err)
		}
	}

	// Retried sweep completes; live and archived manifests both survive it.
	s.checkpointMu.Lock()
	err = s.compactStore()
	s.checkpointMu.Unlock()
	if err != nil {
		t.Fatalf("retried compaction: %v", err)
	}
	if got := store.SegmentCount(); got != 1 {
		t.Fatalf("segments after compaction = %d, want 1", got)
	}
	for _, path := range []string{snapshotPath, archiveName(snapshotPath, 3)} {
		if err := restorable(path); err != nil {
			t.Fatalf("after compaction, %s does not restore: %v", path, err)
		}
	}
}
