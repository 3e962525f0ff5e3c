package core

// Persistence: one format, one mutating writer, one restore. Every persisted
// section — dataset entries, graph, clustering items, import caches,
// partition caches, reports, pair ownership — is a log of content-addressed
// chunks: a chunk either re-bases the section (full re-encode) or applies a
// delta of key sets/deletes recorded by the engine's dirty tracking. The v5
// manifest holds only the ordered chunk references plus the genuinely small
// inline state (config, posting lists, sequence stamps).
//
// Three entry points share the one section encoder (encodeLocked):
//
//   - Engine.Checkpoint needs an attached castore.Store. It appends the
//     delta chunks to the store, writes the manifest to the caller's stream
//     (so the atomic-rename and WAL-truncation contracts upstream are
//     untouched) and commits: the section logs advance, the graph journal
//     prefix drops and the dirty tracking resets. Cost is O(changes since
//     the last checkpoint), not O(corpus). It is the only call that mutates
//     persistence state.
//   - Engine.Export is pure: a full re-encode of every section, written as
//     a self-contained bundle (bundle.go) that needs no store to restore.
//   - Restore reads either a bundle or a v5 manifest resolved against its
//     store. Monolithic v3/v4 snapshots are no longer read.
//
// Durability ordering: Checkpoint appends — and fsyncs — the chunk segment
// before a single manifest byte is written, so a manifest that gets
// published by the caller's rename can always resolve its references; a
// crash in between leaves only unreferenced blobs, which compaction
// collects.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"malgraph/internal/castore"
	"malgraph/internal/collect"
	"malgraph/internal/ecosys"
	"malgraph/internal/graph"
	"malgraph/internal/parallel"
	"malgraph/internal/reports"
	"malgraph/internal/textsim"
)

// snapshotVersionSegmented is the manifest format version.
const snapshotVersionSegmented = 5

// manifestSnapshot is the v5 wire format: inline small state plus, per
// section, the ordered chunk references that reconstruct it.
type manifestSnapshot struct {
	Version    int                  `json:"version"`
	Config     Config               `json:"config"`
	Header     collect.ResultHeader `json:"datasetHeader"`
	Posting    map[string][]string  `json:"posting"`
	AppliedSeq uint64               `json:"appliedSeq,omitempty"`
	FeedPos    int                  `json:"feedPos,omitempty"`
	Sections   map[string][]string  `json:"sections"`
}

// snapshotItem carries a cached clustering item. SimHash fingerprints are
// full 64-bit values, so Hash travels as hex — JSON numbers lose integer
// precision past 2^53.
type snapshotItem struct {
	ID     string    `json:"id"`
	Vector []float64 `json:"vector"`
	Hash   string    `json:"hash"`
}

// kvChunk is one delta of a keyed section: Set writes (or overwrites) keys,
// Del removes them. Chunks apply in manifest order; within one chunk the two
// maps are disjoint by construction.
type kvChunk struct {
	Set map[string]json.RawMessage `json:"set,omitempty"`
	Del []string                   `json:"del,omitempty"`
}

// graphChunk is one step of the graph log: either a full re-base (Reset
// carries graph.WriteJSON output) or the journaled operations since the
// previous chunk.
type graphChunk struct {
	Reset json.RawMessage `json:"reset,omitempty"`
	Ops   []graph.Op      `json:"ops,omitempty"`
}

// ecoKey joins an ecosystem name and an inner key for sections whose keys
// are only unique per ecosystem (items, partitions). NUL cannot appear in
// node IDs or partition keys.
func ecoKey(eco, inner string) string { return eco + "\x00" + inner }

func splitEcoKey(key string) (eco, inner string, ok bool) {
	i := strings.IndexByte(key, 0)
	if i < 0 {
		return "", "", false
	}
	return key[:i], key[i+1:], true
}

// pendingChunk is one chunk built but not yet durable; the in-memory
// section logs are only updated by commitLocked, after the whole segment
// fsyncs and the manifest is written, so a failed checkpoint leaves the
// dirty state intact for the next attempt.
type pendingChunk struct {
	section string
	key     string // "" for an empty re-base (clears the section's refs)
	keys    int
	rebase  bool
}

// encoding is one encoded persistence state: the manifest line, the blobs
// it needs beyond what the store already holds, and the bookkeeping a
// successful Checkpoint commits.
type encoding struct {
	manifest    []byte // newline-terminated manifest JSON
	blobs       []castore.Blob
	chunks      []pendingChunk
	artRefs     map[string]artifactRef // artifact blobs encoded afresh
	journalDrop int                    // graph journal ops the chunks cover
}

// errNoStore is Checkpoint's refusal on a storeless engine.
var errNoStore = errors.New("core: checkpoint needs an attached content store (AttachStore)")

// Checkpoint writes a v5 checkpoint: delta chunks and new artifact blobs
// into the attached store, the manifest to w; then commits. It fails
// without touching any state when no store is attached.
func (e *Engine) Checkpoint(w io.Writer) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.store == nil {
		return errNoStore
	}
	enc, err := e.encodeLocked(false)
	if err != nil {
		return err
	}
	// Make the chunks and blobs durable before a single manifest byte:
	// Append fsyncs the segment (and the directory) before returning.
	if _, err := e.store.Append(enc.blobs); err != nil {
		return fmt.Errorf("checkpoint: append segment: %w", err)
	}
	if _, err := w.Write(enc.manifest); err != nil {
		return fmt.Errorf("checkpoint: manifest: %w", err)
	}
	e.commitLocked(enc)
	return nil
}

// Export writes the engine's full state as a self-contained bundle. It is
// pure: every section is re-encoded in full under the lock, before any byte
// is written, and no log, journal, tracker or store is touched — so the
// bytes depend only on the engine's state, not on whether or how it
// checkpoints.
func (e *Engine) Export(w io.Writer) error {
	e.mu.Lock()
	enc, err := e.encodeLocked(true)
	e.mu.Unlock()
	if err != nil {
		return err
	}
	return writeBundle(w, enc.manifest, enc.blobs)
}

// encodeLocked encodes every section's next chunk. full re-bases every
// section and carries every artifact blob (Export); otherwise each section
// follows its log's re-base policy and carries only the tracked delta
// (Checkpoint, store attached). It reads engine state only. Caller holds
// e.mu.
func (e *Engine) encodeLocked(full bool) (*encoding, error) {
	enc := &encoding{artRefs: make(map[string]artifactRef)}
	addBlob := func(data []byte) string {
		key := castore.KeyOf(data)
		enc.blobs = append(enc.blobs, castore.Blob{Key: key, Data: data})
		return key
	}
	rebaseDue := func(section string, liveKeys int) bool {
		return full || e.logs[section].rebaseDue(liveKeys)
	}
	addKV := func(section string, set map[string]json.RawMessage, del []string, rebase bool) error {
		if len(set) == 0 && len(del) == 0 {
			if rebase {
				// The section re-based to empty: the manifest must drop the
				// old refs even though there is no chunk to write.
				enc.chunks = append(enc.chunks, pendingChunk{section: section, rebase: true})
			}
			return nil
		}
		data, err := json.Marshal(kvChunk{Set: set, Del: del})
		if err != nil {
			return fmt.Errorf("snapshot %s chunk: %w", section, err)
		}
		enc.chunks = append(enc.chunks, pendingChunk{section, addBlob(data), len(set) + len(del), rebase})
		return nil
	}

	// Dataset: dirty coordinate keys re-encode their entries; artifacts go
	// to the store as standalone blobs referenced from the entry records.
	ds := e.mg.Dataset
	dsRebase := rebaseDue(sectionDataset, len(ds.Entries))
	var dsKeys []string
	if dsRebase {
		dsKeys = make([]string, 0, len(ds.Entries))
		for _, en := range ds.Entries {
			dsKeys = append(dsKeys, en.Coord.Key())
		}
	} else {
		dsKeys = sortedKeySet(e.track.entries)
	}
	dsSet := make(map[string]json.RawMessage, len(dsKeys))
	for _, key := range dsKeys {
		en, ok := ds.EntryByKey(key)
		if !ok {
			return nil, fmt.Errorf("snapshot: dirty entry %s not in dataset", key)
		}
		blobRef := ""
		if en.Artifact != nil {
			if ref, ok := e.artifactRefs[key]; !full && ok && ref.art == en.Artifact {
				blobRef = ref.key
			} else {
				raw, err := json.Marshal(en.Artifact)
				if err != nil {
					return nil, fmt.Errorf("snapshot artifact %s: %w", key, err)
				}
				blobRef = addBlob(raw)
				enc.artRefs[key] = artifactRef{art: en.Artifact, key: blobRef}
			}
		}
		rec, err := ds.EncodeEntry(en, blobRef)
		if err != nil {
			return nil, fmt.Errorf("snapshot entry %s: %w", key, err)
		}
		dsSet[key] = rec
	}
	if err := addKV(sectionDataset, dsSet, nil, dsRebase); err != nil {
		return nil, err
	}

	// Graph: journaled operations, or a full re-base when the log grew past
	// the live node+edge count. Either way the chunk covers every journaled
	// op, so a commit drops them all.
	var ops []graph.Op
	if !full {
		ops = e.mg.G.JournalOps()
		enc.journalDrop = len(ops)
	}
	liveGraph := e.mg.G.NodeCount() + e.mg.G.EdgeCount()
	var step *graphChunk
	keys := len(ops)
	if rebaseDue(sectionGraph, liveGraph) {
		var buf bytes.Buffer
		if err := e.mg.G.WriteJSON(&buf); err != nil {
			return nil, fmt.Errorf("snapshot graph: %w", err)
		}
		step, keys = &graphChunk{Reset: buf.Bytes()}, liveGraph
	} else if len(ops) > 0 {
		step = &graphChunk{Ops: ops}
	}
	if step != nil {
		data, err := json.Marshal(step)
		if err != nil {
			return nil, fmt.Errorf("snapshot graph chunk: %w", err)
		}
		enc.chunks = append(enc.chunks, pendingChunk{sectionGraph, addBlob(data), keys, step.Reset != nil})
	}

	// Per-shard sections. Shards iterate in sorted-ecosystem order so chunk
	// bytes are deterministic for a given state.
	ecos := make([]ecosys.Ecosystem, 0, len(e.shards))
	for eco := range e.shards {
		ecos = append(ecos, eco)
	}
	sort.Slice(ecos, func(i, j int) bool { return ecos[i] < ecos[j] })

	totalItems, totalImports, totalParts := 0, 0, 0
	for _, sh := range e.shards {
		totalItems += len(sh.items)
		totalImports += len(sh.importsOf)
		totalParts += len(sh.clustersByPart)
	}

	itRebase := rebaseDue(sectionItems, totalItems)
	itSet := make(map[string]json.RawMessage)
	impRebase := rebaseDue(sectionImports, totalImports)
	impSet := make(map[string]json.RawMessage)
	partRebase := rebaseDue(sectionPartitions, totalParts)
	partSet := make(map[string]json.RawMessage)
	var partDel []string
	for _, eco := range ecos {
		sh := e.shards[eco]
		name := eco.String()
		items := sh.newItems
		if itRebase {
			items = sh.items
		}
		for _, it := range items {
			raw, err := json.Marshal(snapshotItem{
				ID:     it.ID,
				Vector: it.Vector,
				Hash:   strconv.FormatUint(it.Hash, 16),
			})
			if err != nil {
				return nil, fmt.Errorf("snapshot item %s: %w", it.ID, err)
			}
			itSet[ecoKey(name, it.ID)] = raw
		}
		var fronts []string
		if impRebase {
			fronts = make([]string, 0, len(sh.importsOf))
			for front := range sh.importsOf {
				fronts = append(fronts, front)
			}
		} else {
			fronts = make([]string, 0, len(sh.dirtyImports))
			for front := range sh.dirtyImports {
				fronts = append(fronts, front)
			}
		}
		sort.Strings(fronts)
		for _, front := range fronts {
			raw, err := json.Marshal(sh.importsOf[front])
			if err != nil {
				return nil, fmt.Errorf("snapshot imports %s: %w", front, err)
			}
			impSet[front] = raw
		}
		var partKeys []string
		if partRebase {
			partKeys = make([]string, 0, len(sh.clustersByPart))
			for key := range sh.clustersByPart {
				partKeys = append(partKeys, key)
			}
		} else {
			partKeys = make([]string, 0, len(sh.dirtyParts))
			for key := range sh.dirtyParts {
				partKeys = append(partKeys, key)
			}
			for key := range sh.delParts {
				partDel = append(partDel, ecoKey(name, key))
			}
		}
		sort.Strings(partKeys)
		for _, key := range partKeys {
			raw, err := json.Marshal(sh.clustersByPart[key])
			if err != nil {
				return nil, fmt.Errorf("snapshot partition %s: %w", key, err)
			}
			partSet[ecoKey(name, key)] = raw
		}
	}
	if err := addKV(sectionItems, itSet, nil, itRebase); err != nil {
		return nil, err
	}
	if err := addKV(sectionImports, impSet, nil, impRebase); err != nil {
		return nil, err
	}
	sort.Strings(partDel)
	if err := addKV(sectionPartitions, partSet, partDel, partRebase); err != nil {
		return nil, err
	}

	// Reports: add-only by URL (the corpus keeps the first crawl).
	repRebase := rebaseDue(sectionReports, len(e.mg.Reports))
	var repURLs []string
	if repRebase {
		repURLs = make([]string, 0, len(e.mg.Reports))
		for _, rep := range e.mg.Reports {
			repURLs = append(repURLs, rep.URL)
		}
	} else {
		repURLs = sortedKeySet(e.track.reports)
	}
	repSet := make(map[string]json.RawMessage, len(repURLs))
	for _, url := range repURLs {
		rep := e.reportByURL[url]
		if rep == nil {
			return nil, fmt.Errorf("snapshot: dirty report %s not in corpus", url)
		}
		raw, err := json.Marshal(rep)
		if err != nil {
			return nil, fmt.Errorf("snapshot report %s: %w", url, err)
		}
		repSet[url] = raw
	}
	if err := addKV(sectionReports, repSet, nil, repRebase); err != nil {
		return nil, err
	}

	// Pair ownership: per-key sets and deletes, or a full re-base after the
	// co-existing fallback rebuilt the map wholesale.
	poRebase := rebaseDue(sectionPairOwners, len(e.coexOwner)) || e.track.pairsRebase
	poSet := make(map[string]json.RawMessage)
	var poDel []string
	setOwner := func(pk, url string) error {
		raw, err := json.Marshal(url)
		if err != nil {
			return fmt.Errorf("snapshot pair owner %s: %w", pk, err)
		}
		poSet[pk] = raw
		return nil
	}
	if poRebase {
		for pk, url := range e.coexOwner {
			if err := setOwner(pk, url); err != nil {
				return nil, err
			}
		}
	} else {
		for pk := range e.track.pairs {
			url, ok := e.coexOwner[pk]
			if !ok {
				return nil, fmt.Errorf("snapshot: dirty pair %s not in ownership map", pk)
			}
			if err := setOwner(pk, url); err != nil {
				return nil, err
			}
		}
		for pk := range e.track.delPairs {
			poDel = append(poDel, pk)
		}
	}
	sort.Strings(poDel)
	if err := addKV(sectionPairOwners, poSet, poDel, poRebase); err != nil {
		return nil, err
	}

	// The prospective section refs: the logs' current chains (none for a
	// full encode) with this encoding's chunks applied.
	man := manifestSnapshot{
		Version:    snapshotVersionSegmented,
		Config:     e.cfg,
		Header:     ds.EncodeHeader(),
		Posting:    e.posting,
		AppliedSeq: e.appliedSeq,
		FeedPos:    e.feedPos,
		Sections:   make(map[string][]string, len(sectionNames)),
	}
	if !full {
		for _, name := range sectionNames {
			man.Sections[name] = e.logs[name].refs
		}
	}
	for _, pc := range enc.chunks {
		if pc.rebase {
			if pc.key == "" {
				man.Sections[pc.section] = []string{}
			} else {
				man.Sections[pc.section] = []string{pc.key}
			}
			continue
		}
		cur := man.Sections[pc.section]
		man.Sections[pc.section] = append(cur[:len(cur):len(cur)], pc.key)
	}
	data, err := json.Marshal(&man)
	if err != nil {
		return nil, fmt.Errorf("snapshot: manifest: %w", err)
	}
	enc.manifest = append(data, '\n')
	return enc, nil
}

// commitLocked advances the section logs past a durable checkpoint and
// resets the dirty state. (If the caller's rename of the manifest fails the
// previous manifest stays published; its refs are a subset of ours plus
// chunks the next checkpoint will still reference — nothing is lost.)
// Caller holds e.mu.
func (e *Engine) commitLocked(enc *encoding) {
	for _, pc := range enc.chunks {
		lg := e.logs[pc.section]
		if pc.rebase {
			lg.refs = nil
			if pc.key != "" {
				lg.refs = []string{pc.key}
			}
			lg.logged = pc.keys
			lg.rebase = false
		} else {
			lg.refs = append(lg.refs, pc.key)
			lg.logged += pc.keys
		}
	}
	e.mg.G.DropJournalPrefix(enc.journalDrop)
	e.track.reset()
	for _, sh := range e.shards {
		sh.newItems = nil
		sh.dirtyImports = nil
		sh.dirtyParts = nil
		sh.delParts = nil
	}
	for k, ref := range enc.artRefs {
		e.artifactRefs[k] = ref
	}
}

// sortedKeySet returns the map's keys sorted.
func sortedKeySet(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// sortedRawKeys returns a replayed chunk-state's keys sorted, so restore
// loops that group entries into per-ecosystem containers visit them in a
// deterministic order.
func sortedRawKeys(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// fetchFunc resolves content keys to blob bytes: castore.Store.Fetch for a
// manifest, the stream's blobs for a bundle.
type fetchFunc func(keys []string) (map[string]json.RawMessage, error)

// Restore reconstructs an engine from either persistence stream:
//
//   - an Export bundle, whose blobs come from the stream itself. With st
//     non-nil the store is attached in re-base mode, so the engine's first
//     checkpoint writes its full state into st;
//   - a v5 manifest, whose chunk references resolve against st (which must
//     be the store the manifest was checkpointed into). The restored engine
//     keeps appending deltas to the same chunk chains.
//
// Anything else — including v3/v4 monolithic snapshots — is an error that
// names its version. The restored engine continues ingesting exactly where
// the persisted one stopped: all caches and indexes are rebuilt, so the
// next batch costs the same as it would have without the restart.
func Restore(r io.Reader, st *castore.Store) (*Engine, error) {
	br := bufio.NewReader(r)
	head, err := br.ReadBytes('\n')
	if err != nil && (err != io.EOF || len(head) == 0) {
		return nil, fmt.Errorf("restore read: %w", err)
	}
	var probe struct {
		Format  string `json:"format"`
		Version int    `json:"version"`
	}
	if err := json.Unmarshal(head, &probe); err != nil {
		return nil, fmt.Errorf("restore decode: %w", err)
	}
	switch {
	case probe.Format != "":
		man, blobs, err := readBundle(head, br)
		if err != nil {
			return nil, fmt.Errorf("restore: %w", err)
		}
		return restoreManifest(man, blobs.fetch, st, false)
	case probe.Version == snapshotVersionSegmented:
		if st == nil {
			return nil, fmt.Errorf("restore: snapshot version %d is a segmented manifest; restore it with its content store (RestoreEngineWithStore / -store)",
				probe.Version)
		}
		if err := expectEOF(br); err != nil {
			return nil, fmt.Errorf("restore manifest: %w", err)
		}
		var man manifestSnapshot
		if err := json.Unmarshal(head, &man); err != nil {
			return nil, fmt.Errorf("restore manifest decode: %w", err)
		}
		return restoreManifest(&man, st.Fetch, st, true)
	default:
		return nil, fmt.Errorf("restore: snapshot version %d is not readable: restore takes a version %d manifest with its content store or a %s bundle (monolithic v3/v4 snapshots are no longer read)",
			probe.Version, snapshotVersionSegmented, bundleFormat)
	}
}

// restoredSections is every keyed section a manifest's chunk chains decode
// to, beside the dataset and graph.
type restoredSections struct {
	reports    []*reports.Report
	items      map[string][]snapshotItem
	imports    map[string][]string
	partitions map[string]map[string][]textsim.Cluster
	pairOwners map[string]string
}

// restoreManifest rebuilds an engine from a v5 manifest whose blobs fetch
// resolves. With st non-nil the store is attached afterwards: resuming the
// manifest's chunk chains when the blobs came from st, in re-base mode
// otherwise.
//
// Decoding fans out across parallel.Workers(): every chunk of every section
// decodes concurrently (the graph re-base alongside the rest), then each
// section replays its chunks serially in manifest order, the sections
// concurrently with one another, and artifact blobs decode concurrently.
// Every stage keeps the error of the first failure in manifest and key
// order, so a restore returns the same engine, or the same error, as a
// sequential one under any GOMAXPROCS.
func restoreManifest(man *manifestSnapshot, fetch fetchFunc, st *castore.Store, resume bool) (*Engine, error) {
	var allRefs []string
	for _, name := range sectionNames {
		allRefs = append(allRefs, man.Sections[name]...)
	}
	chunkData, err := fetch(allRefs)
	if err != nil {
		return nil, fmt.Errorf("restore: fetch chunks: %w", err)
	}
	chunks := decodeChunks(man, chunkData)

	var (
		g       *graph.Graph
		decoded []collect.DecodedEntry
		ds      *collect.Result
		sec     restoredSections
		// graphLogged is the graph chain's replayed node, edge and op count.
		graphLogged int
	)

	// The tasks run in the order a sequential restore meets their errors,
	// and parallel.Do reports the first error in argument order.
	err = parallel.Do(
		// Graph: replay the chunk log (a re-base resets, ops apply on top).
		func() error {
			g = graph.New()
			for i, dc := range chunks[sectionGraph] {
				if dc.err != nil {
					return dc.err
				}
				if dc.reset != nil {
					g = dc.reset
					graphLogged = g.NodeCount() + g.EdgeCount()
				}
				if len(dc.graph.Ops) > 0 {
					if err := g.Apply(dc.graph.Ops); err != nil {
						return fmt.Errorf("restore graph ops %s: %w", man.Sections[sectionGraph][i], err)
					}
					graphLogged += len(dc.graph.Ops)
				}
			}
			return nil
		},
		// Dataset: replay entry records, then resolve and attach artifact
		// blobs.
		func() error {
			entState, err := replayKV(chunks[sectionDataset])
			if err != nil {
				return err
			}
			entKeys := sortedRawKeys(entState)
			decoded = make([]collect.DecodedEntry, len(entKeys))
			if err := parallel.ForEachErr(len(entKeys), func(i int) error {
				de, err := collect.DecodeEntry(entState[entKeys[i]])
				if err != nil {
					return fmt.Errorf("restore entry %s: %w", entKeys[i], err)
				}
				decoded[i] = de
				return nil
			}); err != nil {
				return err
			}
			var wantArts []string
			for _, de := range decoded {
				if de.BlobRef != "" && de.Entry.Artifact == nil {
					wantArts = append(wantArts, de.BlobRef)
				}
			}
			artData, err := fetch(wantArts)
			if err != nil {
				return fmt.Errorf("restore: fetch artifacts: %w", err)
			}
			if err := parallel.ForEachErr(len(decoded), func(i int) error {
				ref := decoded[i].BlobRef
				if ref == "" || decoded[i].Entry.Artifact != nil {
					return nil
				}
				var art ecosys.Artifact
				if err := json.Unmarshal(artData[ref], &art); err != nil {
					return fmt.Errorf("restore artifact %s: %w", ref, err)
				}
				decoded[i].Entry.Artifact = &art
				return nil
			}); err != nil {
				return err
			}
			ds, err = collect.AssembleResult(man.Header, decoded)
			if err != nil {
				return fmt.Errorf("restore dataset: %w", err)
			}
			return nil
		},
		// Reports, items, imports, partitions, pair ownership.
		func() error {
			_, vals, err := replayValues[*reports.Report](chunks[sectionReports], "report", false)
			sec.reports = vals
			return err
		},
		func() error {
			keys, vals, err := replayValues[snapshotItem](chunks[sectionItems], "item", true)
			sec.items = make(map[string][]snapshotItem)
			for i, k := range keys {
				eco, _, _ := splitEcoKey(k)
				sec.items[eco] = append(sec.items[eco], vals[i])
			}
			return err
		},
		func() error {
			keys, vals, err := replayValues[[]string](chunks[sectionImports], "imports", false)
			sec.imports = make(map[string][]string, len(keys))
			for i, front := range keys {
				sec.imports[front] = vals[i]
			}
			return err
		},
		func() error {
			keys, vals, err := replayValues[[]textsim.Cluster](chunks[sectionPartitions], "partition", true)
			sec.partitions = make(map[string]map[string][]textsim.Cluster)
			for i, k := range keys {
				eco, inner, _ := splitEcoKey(k)
				if sec.partitions[eco] == nil {
					sec.partitions[eco] = make(map[string][]textsim.Cluster)
				}
				sec.partitions[eco][inner] = vals[i]
			}
			return err
		},
		func() error {
			keys, vals, err := replayValues[string](chunks[sectionPairOwners], "pair owner", false)
			sec.pairOwners = make(map[string]string, len(keys))
			for i, pk := range keys {
				sec.pairOwners[pk] = vals[i]
			}
			return err
		},
	)
	if err != nil {
		return nil, err
	}

	e, err := restoreFromParts(man, ds, g, &sec)
	if err != nil {
		return nil, err
	}
	if st == nil {
		return e, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.attachStoreLocked(st)
	if !resume {
		return e, nil // every section re-based: the first checkpoint writes it all
	}
	// Resume the manifest's logs instead of a blank re-base: the restored
	// engine keeps appending deltas to the same chunk chains.
	for _, name := range sectionNames {
		lg := e.logs[name]
		lg.refs = append([]string(nil), man.Sections[name]...)
		lg.logged = graphLogged
		if name != sectionGraph {
			lg.logged = 0
			for _, dc := range chunks[name] {
				lg.logged += len(dc.kv.Set) + len(dc.kv.Del)
			}
		}
		lg.rebase = false
	}
	for _, de := range decoded {
		if de.BlobRef != "" && de.Entry.Artifact != nil {
			e.artifactRefs[de.Entry.Coord.Key()] = artifactRef{art: de.Entry.Artifact, key: de.BlobRef}
		}
	}
	return e, nil
}

// restoreFromParts rebuilds an engine from a manifest's inline state and
// its decoded sections: the in-memory indexes, the LSH partition index and
// the co-existing join index all come back exactly as the persisted engine
// held them.
func restoreFromParts(man *manifestSnapshot, ds *collect.Result, g *graph.Graph, sec *restoredSections) (*Engine, error) {
	e := NewEngine(man.Config)
	e.appliedSeq = man.AppliedSeq
	e.feedPos = man.FeedPos
	e.mg.G = g
	e.mg.Dataset = ds
	e.mg.Reports = sec.reports
	sort.Slice(e.mg.Reports, func(i, j int) bool { return e.mg.Reports[i].URL < e.mg.Reports[j].URL })

	ecoByName := make(map[string]ecosys.Ecosystem, len(ecosys.All()))
	for _, eco := range ecosys.All() {
		ecoByName[eco.String()] = eco
	}
	for name, items := range sec.items {
		eco, ok := ecoByName[name]
		if !ok {
			return nil, fmt.Errorf("restore: unknown ecosystem %q in items", name)
		}
		sh := e.shardLocked(eco)
		// Headroom lets the first post-restore merges (mergeItems) splice
		// new items in place instead of reallocating the ID-sorted slice.
		restored := make([]textsim.Item, 0, len(items)+len(items)/8+16)
		for _, it := range items {
			hash, err := strconv.ParseUint(it.Hash, 16, 64)
			if err != nil {
				return nil, fmt.Errorf("restore: bad fingerprint for %s: %w", it.ID, err)
			}
			restored = append(restored, textsim.Item{ID: it.ID, Vector: it.Vector, Hash: hash})
		}
		sort.Slice(restored, func(i, j int) bool { return restored[i].ID < restored[j].ID })
		sh.items = restored
		// Rebuild the LSH partition index from the cached fingerprints —
		// partition membership and canonical keys are content-derived, so
		// this reproduces the persisted engine's index exactly.
		idx := textsim.NewLSHIndex(e.cfg.Cluster)
		for _, it := range restored {
			idx.Add(it.ID, it.Hash, it.Vector)
		}
		// Rebuild-time retirements predate the persisted partition cache,
		// which is already keyed canonically — drain them so the first
		// post-restore ingest doesn't pay an O(corpus) stale-key sweep the
		// uninterrupted engine never sees.
		idx.DrainRetired()
		sh.lsh = idx
	}
	for name, parts := range sec.partitions {
		eco, ok := ecoByName[name]
		if !ok {
			return nil, fmt.Errorf("restore: unknown ecosystem %q in partitions", name)
		}
		sh := e.shardLocked(eco)
		for key := range parts {
			if sh.lsh == nil || sh.lsh.Members(key) == nil {
				return nil, fmt.Errorf("restore: %s partition %q is not canonical in the rebuilt LSH index", name, key)
			}
		}
		sh.clustersByPart = parts
		//malgraph:nondeterm-ok eco is a bijective rename of the range key, so this writes each ecosystem exactly once
		e.mg.SimilarClusters[eco] = sh.flat.flatten(parts)
	}

	// Rebuild the in-memory indexes from the merged dataset and caches.
	for _, en := range ds.Entries {
		sh := e.shardLocked(en.Coord.Ecosystem)
		name := en.Coord.Name
		id := NodeID(en.Coord)
		sh.byName[name] = append(sh.byName[name], id)
		sh.corpus[name] = true
		e.mg.entryByID[id] = en
	}
	// The imports section is one flat map; split it back into the
	// per-ecosystem shards (node IDs resolve their ecosystem via the dataset)
	// and rebuild each reverse import index in sorted front order so future
	// edge insertions stay deterministic.
	fronts := make([]string, 0, len(sec.imports))
	for front := range sec.imports {
		fronts = append(fronts, front)
	}
	sort.Strings(fronts)
	for _, front := range fronts {
		en, ok := e.mg.entryByID[front]
		if !ok {
			return nil, fmt.Errorf("restore: import cache references unknown node %s", front)
		}
		sh := e.shardLocked(en.Coord.Ecosystem)
		sh.importsOf[front] = sec.imports[front]
		for _, dep := range sec.imports[front] {
			sh.importers[dep] = append(sh.importers[dep], front)
		}
	}
	// Rebuild the per-package report index from the URL-sorted corpus (the
	// appends preserve global URL order) and restore the join index. The
	// posting lists and pair ownership come from the manifest verbatim — a
	// restored engine's next wanted-package ingest re-joins exactly the
	// scope the uninterrupted engine would, without an O(reports) pass.
	for _, rep := range e.mg.Reports {
		e.reportByURL[rep.URL] = rep
		seen := make(map[string]bool, len(rep.Packages))
		for _, coord := range rep.Packages {
			id := NodeID(coord)
			if seen[id] {
				continue
			}
			seen[id] = true
			if _, ok := e.mg.G.Node(id); ok {
				e.mg.ReportsByPackage[id] = append(e.mg.ReportsByPackage[id], rep)
			}
		}
	}
	if man.Posting != nil {
		e.posting = man.Posting
	}
	if sec.pairOwners != nil {
		e.coexOwner = sec.pairOwners
	}
	return e, nil
}

// replayKV replays a keyed section's decoded chunk chain in manifest
// order, stopping at the first chunk that failed to decode.
func replayKV(chunks []decodedChunk) (map[string]json.RawMessage, error) {
	state := make(map[string]json.RawMessage)
	for _, dc := range chunks {
		if dc.err != nil {
			return nil, dc.err
		}
		for k, v := range dc.kv.Set {
			state[k] = v
		}
		for _, k := range dc.kv.Del {
			delete(state, k)
		}
	}
	return state, nil
}

// replayValues replays a keyed section's chunk chain and decodes every
// value, concurrently, in sorted key order. Keys of ecoKeyed sections must
// be ecosystem-qualified.
func replayValues[T any](chunks []decodedChunk, what string, ecoKeyed bool) ([]string, []T, error) {
	state, err := replayKV(chunks)
	if err != nil {
		return nil, nil, err
	}
	keys := sortedRawKeys(state)
	vals := make([]T, len(keys))
	if err := parallel.ForEachErr(len(keys), func(i int) error {
		if _, _, ok := splitEcoKey(keys[i]); ecoKeyed && !ok {
			return fmt.Errorf("restore: malformed %s key %q", what, keys[i])
		}
		if err := json.Unmarshal(state[keys[i]], &vals[i]); err != nil {
			return fmt.Errorf("restore %s %s: %w", what, keys[i], err)
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	return keys, vals, nil
}

// decodedChunk is one manifest chunk decoded ahead of its section's serial
// replay: a keyed delta, or a graph step whose re-base (if any) is already
// rebuilt into a graph. err is the error a sequential replay would have
// stopped at on this chunk.
type decodedChunk struct {
	kv    kvChunk
	graph graphChunk
	reset *graph.Graph
	err   error
}

// decodeChunks decodes every chunk the manifest references, concurrently,
// into per-section slices in manifest order. Larger chunks are started
// first so that a big graph re-base overlaps the many small deltas instead
// of trailing them.
func decodeChunks(man *manifestSnapshot, data map[string]json.RawMessage) map[string][]decodedChunk {
	type job struct {
		section string
		i       int
	}
	out := make(map[string][]decodedChunk, len(sectionNames))
	var jobs []job
	for _, name := range sectionNames {
		out[name] = make([]decodedChunk, len(man.Sections[name]))
		for i := range man.Sections[name] {
			jobs = append(jobs, job{name, i})
		}
	}
	size := func(j job) int { return len(data[man.Sections[j.section][j.i]]) }
	sort.SliceStable(jobs, func(a, b int) bool { return size(jobs[a]) > size(jobs[b]) })
	parallel.ForEach(len(jobs), func(k int) {
		j := jobs[k]
		ref := man.Sections[j.section][j.i]
		dc := &out[j.section][j.i]
		if j.section != sectionGraph {
			if err := json.Unmarshal(data[ref], &dc.kv); err != nil {
				dc.err = fmt.Errorf("restore %s chunk %s: %w", j.section, ref, err)
			}
			return
		}
		if err := json.Unmarshal(data[ref], &dc.graph); err != nil {
			dc.err = fmt.Errorf("restore graph chunk %s: %w", ref, err)
			return
		}
		if len(dc.graph.Reset) > 0 {
			g, err := graph.ReadJSON(bytes.NewReader(dc.graph.Reset))
			if err != nil {
				dc.err = fmt.Errorf("restore graph reset %s: %w", ref, err)
				return
			}
			dc.reset = g
			dc.graph.Reset = nil
		}
	})
	return out
}

// CollectManifestRefs returns every blob a v5 manifest references: its
// section chunks plus the artifact blobs its dataset chunks point at.
// Compaction unions this over every retained manifest so archived manifests
// stay restorable. st resolves the dataset chunks (their entry records carry
// the artifact refs), which decode concurrently. Anything but a v5 manifest
// is an error: a file compaction cannot read could reference anything.
func CollectManifestRefs(r io.Reader, st *castore.Store) (map[string]bool, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("manifest refs: %w", err)
	}
	var man manifestSnapshot
	if err := json.Unmarshal(buf, &man); err != nil {
		return nil, fmt.Errorf("manifest refs decode: %w", err)
	}
	if man.Version != snapshotVersionSegmented {
		return nil, fmt.Errorf("manifest refs: snapshot version %d is not a version %d manifest",
			man.Version, snapshotVersionSegmented)
	}
	live := make(map[string]bool)
	for _, name := range sectionNames {
		for _, ref := range man.Sections[name] {
			live[ref] = true
		}
	}
	dsRefs := man.Sections[sectionDataset]
	dsData, err := st.Fetch(dsRefs)
	if err != nil {
		return nil, fmt.Errorf("manifest refs: fetch dataset chunks: %w", err)
	}
	blobRefs := make([][]string, len(dsRefs))
	if err := parallel.ForEachErr(len(dsRefs), func(i int) error {
		var ch kvChunk
		if err := json.Unmarshal(dsData[dsRefs[i]], &ch); err != nil {
			return fmt.Errorf("manifest refs: dataset chunk %s: %w", dsRefs[i], err)
		}
		for _, k := range sortedRawKeys(ch.Set) {
			de, err := collect.DecodeEntry(ch.Set[k])
			if err != nil {
				return fmt.Errorf("manifest refs: entry %s: %w", k, err)
			}
			if de.BlobRef != "" {
				blobRefs[i] = append(blobRefs[i], de.BlobRef)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for _, refs := range blobRefs {
		for _, ref := range refs {
			live[ref] = true
		}
	}
	return live, nil
}
