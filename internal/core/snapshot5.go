package core

// Snapshot v5: segmented delta checkpoints. A store-attached engine splits
// persistence into a small manifest (written to the caller's stream exactly
// like a monolithic snapshot, so the atomic-rename and WAL-truncation
// contracts upstream are untouched) and content-addressed chunks in a
// castore.Store. Each persisted section — dataset entries, graph, clustering
// items, import caches, partition caches, reports, pair ownership — is a
// log of chunks: a chunk either re-bases the section (full re-encode) or
// applies a delta of key sets/deletes recorded by the engine's dirty
// tracking. The manifest holds only the ordered chunk references plus the
// genuinely small inline state (config, posting lists, sequence stamps), so
// checkpoint cost is O(changes since the last checkpoint), not O(corpus).
//
// Durability ordering: the chunk segment is appended — and fsynced — before
// a single manifest byte is written, so a manifest that gets published by
// the caller's rename can always resolve its references; a crash in between
// leaves only unreferenced blobs, which compaction collects.

import (
	"bytes"
	"encoding/json"
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
// section logs are only updated after the whole segment fsyncs and the
// manifest encodes, so a failed checkpoint leaves the dirty state intact
// for the next attempt.
type pendingChunk struct {
	section string
	key     string // "" for an empty re-base (clears the section's refs)
	keys    int
	rebase  bool
}

// snapshotSegmentedLocked writes a v5 checkpoint: delta chunks and new
// artifact blobs into the store, the manifest to w. Caller holds e.mu.
func (e *Engine) snapshotSegmentedLocked(w io.Writer) error {
	var blobs []castore.Blob
	var chunks []pendingChunk
	newArtRefs := make(map[string]artifactRef)

	addKV := func(section string, set map[string]json.RawMessage, del []string, rebase bool) error {
		if len(set) == 0 && len(del) == 0 {
			if rebase {
				// The section re-based to empty: the manifest must drop the
				// old refs even though there is no chunk to write.
				chunks = append(chunks, pendingChunk{section: section, rebase: true})
			}
			return nil
		}
		sort.Strings(del)
		data, err := json.Marshal(kvChunk{Set: set, Del: del})
		if err != nil {
			return fmt.Errorf("snapshot %s chunk: %w", section, err)
		}
		key := castore.KeyOf(data)
		blobs = append(blobs, castore.Blob{Key: key, Data: data})
		chunks = append(chunks, pendingChunk{section, key, len(set) + len(del), rebase})
		return nil
	}

	// Dataset: dirty coordinate keys re-encode their entries; artifacts go
	// to the store as standalone blobs referenced from the entry records.
	ds := e.mg.Dataset
	dsRebase := e.logs[sectionDataset].rebaseDue(len(ds.Entries))
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
			return fmt.Errorf("snapshot: dirty entry %s not in dataset", key)
		}
		blobRef := ""
		if en.Artifact != nil {
			if ref, ok := e.artifactRefs[key]; ok && ref.art == en.Artifact {
				blobRef = ref.key
			} else {
				raw, err := json.Marshal(en.Artifact)
				if err != nil {
					return fmt.Errorf("snapshot artifact %s: %w", key, err)
				}
				blobRef = castore.KeyOf(raw)
				blobs = append(blobs, castore.Blob{Key: blobRef, Data: raw})
				newArtRefs[key] = artifactRef{art: en.Artifact, key: blobRef}
			}
		}
		rec, err := ds.EncodeEntry(en, blobRef)
		if err != nil {
			return fmt.Errorf("snapshot entry %s: %w", key, err)
		}
		dsSet[key] = rec
	}
	if err := addKV(sectionDataset, dsSet, nil, dsRebase); err != nil {
		return err
	}

	// Graph: journaled operations, or a full re-base when the log grew past
	// the live node+edge count.
	ops := e.mg.G.JournalOps()
	journalDrop := len(ops)
	liveGraph := e.mg.G.NodeCount() + e.mg.G.EdgeCount()
	if e.logs[sectionGraph].rebaseDue(liveGraph) {
		var buf bytes.Buffer
		if err := e.mg.G.WriteJSON(&buf); err != nil {
			return fmt.Errorf("snapshot graph: %w", err)
		}
		data, err := json.Marshal(graphChunk{Reset: buf.Bytes()})
		if err != nil {
			return fmt.Errorf("snapshot graph chunk: %w", err)
		}
		key := castore.KeyOf(data)
		blobs = append(blobs, castore.Blob{Key: key, Data: data})
		chunks = append(chunks, pendingChunk{sectionGraph, key, liveGraph, true})
	} else if len(ops) > 0 {
		data, err := json.Marshal(graphChunk{Ops: ops})
		if err != nil {
			return fmt.Errorf("snapshot graph chunk: %w", err)
		}
		key := castore.KeyOf(data)
		blobs = append(blobs, castore.Blob{Key: key, Data: data})
		chunks = append(chunks, pendingChunk{sectionGraph, key, len(ops), false})
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

	encodeItem := func(it textsim.Item) (json.RawMessage, error) {
		return json.Marshal(snapshotItem{
			ID:     it.ID,
			Vector: it.Vector,
			Hash:   strconv.FormatUint(it.Hash, 16),
		})
	}
	itRebase := e.logs[sectionItems].rebaseDue(totalItems)
	itSet := make(map[string]json.RawMessage)
	impRebase := e.logs[sectionImports].rebaseDue(totalImports)
	impSet := make(map[string]json.RawMessage)
	partRebase := e.logs[sectionPartitions].rebaseDue(totalParts)
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
			raw, err := encodeItem(it)
			if err != nil {
				return fmt.Errorf("snapshot item %s: %w", it.ID, err)
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
				return fmt.Errorf("snapshot imports %s: %w", front, err)
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
				return fmt.Errorf("snapshot partition %s: %w", key, err)
			}
			partSet[ecoKey(name, key)] = raw
		}
	}
	if err := addKV(sectionItems, itSet, nil, itRebase); err != nil {
		return err
	}
	if err := addKV(sectionImports, impSet, nil, impRebase); err != nil {
		return err
	}
	if partRebase {
		partDel = nil
	}
	sort.Strings(partDel)
	if err := addKV(sectionPartitions, partSet, partDel, partRebase); err != nil {
		return err
	}

	// Reports: add-only by URL (the corpus keeps the first crawl).
	repRebase := e.logs[sectionReports].rebaseDue(len(e.mg.Reports))
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
			return fmt.Errorf("snapshot: dirty report %s not in corpus", url)
		}
		raw, err := json.Marshal(rep)
		if err != nil {
			return fmt.Errorf("snapshot report %s: %w", url, err)
		}
		repSet[url] = raw
	}
	if err := addKV(sectionReports, repSet, nil, repRebase); err != nil {
		return err
	}

	// Pair ownership: per-key sets and deletes, or a full re-base after the
	// co-existing fallback rebuilt the map wholesale.
	poRebase := e.track.pairsRebase || e.logs[sectionPairOwners].rebaseDue(len(e.coexOwner))
	poSet := make(map[string]json.RawMessage)
	var poDel []string
	if poRebase {
		for pk, url := range e.coexOwner {
			raw, err := json.Marshal(url)
			if err != nil {
				return fmt.Errorf("snapshot pair owner %s: %w", pk, err)
			}
			poSet[pk] = raw
		}
	} else {
		for pk := range e.track.pairs {
			url, ok := e.coexOwner[pk]
			if !ok {
				return fmt.Errorf("snapshot: dirty pair %s not in ownership map", pk)
			}
			raw, err := json.Marshal(url)
			if err != nil {
				return fmt.Errorf("snapshot pair owner %s: %w", pk, err)
			}
			poSet[pk] = raw
		}
		for pk := range e.track.delPairs {
			poDel = append(poDel, pk)
		}
	}
	sort.Strings(poDel)
	if err := addKV(sectionPairOwners, poSet, poDel, poRebase); err != nil {
		return err
	}

	// Make the chunks and blobs durable before a single manifest byte:
	// Append fsyncs the segment (and the directory) before returning.
	if _, err := e.store.Append(blobs); err != nil {
		return fmt.Errorf("snapshot: append segment: %w", err)
	}

	// Build the prospective section refs without touching the logs yet.
	man := manifestSnapshot{
		Version:    snapshotVersionSegmented,
		Config:     e.cfg,
		Header:     ds.EncodeHeader(),
		Posting:    e.posting,
		AppliedSeq: e.appliedSeq,
		FeedPos:    e.feedPos,
		Sections:   make(map[string][]string, len(sectionNames)),
	}
	for _, name := range sectionNames {
		man.Sections[name] = e.logs[name].refs
	}
	for _, pc := range chunks {
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
	if err := json.NewEncoder(w).Encode(&man); err != nil {
		return fmt.Errorf("snapshot: manifest: %w", err)
	}

	// Commit: the segment is durable and the manifest encoded, so the logs
	// advance and the dirty state resets. (If the caller's rename fails the
	// previous manifest stays published; its refs are a subset of ours plus
	// chunks the next checkpoint will still reference — nothing is lost.)
	for _, pc := range chunks {
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
	e.mg.G.DropJournalPrefix(journalDrop)
	e.track.reset()
	for _, sh := range e.shards {
		sh.newItems = nil
		sh.dirtyImports = nil
		sh.dirtyParts = nil
		sh.delParts = nil
	}
	for k, ref := range newArtRefs {
		e.artifactRefs[k] = ref
	}
	return nil
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

// RestoreEngineWithStore reconstructs an engine from a snapshot stream
// backed by a content store. A v5 manifest resolves its chunk references
// against st; a monolithic v3/v4 stream restores as before and then has the
// store attached, so the first checkpoint after an upgrade re-bases every
// section into the store. Either way the returned engine checkpoints
// segmentedly from then on.
//
// Decoding fans out across parallel.Workers(): every chunk of every section
// decodes concurrently (the graph re-base alongside the rest), then each
// section replays its chunks serially in manifest order, the sections
// concurrently with one another, and artifact blobs decode concurrently.
// Every stage keeps the error of the first failure in manifest and key
// order, so a restore returns the same engine, or the same error, as a
// sequential one under any GOMAXPROCS.
func RestoreEngineWithStore(r io.Reader, st *castore.Store) (*Engine, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("restore read: %w", err)
	}
	var probe struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(buf, &probe); err != nil {
		return nil, fmt.Errorf("restore decode: %w", err)
	}
	if probe.Version < snapshotVersionSegmented {
		e, err := RestoreEngine(bytes.NewReader(buf))
		if err != nil {
			return nil, err
		}
		e.AttachStore(st)
		return e, nil
	}
	var man manifestSnapshot
	if err := json.Unmarshal(buf, &man); err != nil {
		return nil, fmt.Errorf("restore manifest decode: %w", err)
	}
	if man.Version != snapshotVersionSegmented {
		return nil, fmt.Errorf("restore: snapshot version %d, want %d..%d",
			man.Version, minSnapshotVersion, snapshotVersionSegmented)
	}

	var allRefs []string
	for _, name := range sectionNames {
		allRefs = append(allRefs, man.Sections[name]...)
	}
	chunkData, err := st.Fetch(allRefs)
	if err != nil {
		return nil, fmt.Errorf("restore: fetch chunks: %w", err)
	}
	chunks := decodeChunks(&man, chunkData)

	var (
		g          *graph.Graph
		decoded    []collect.DecodedEntry
		ds         *collect.Result
		reps       []*reports.Report
		items      map[string][]snapshotItem
		imports    map[string][]string
		partitions map[string]map[string][]textsim.Cluster
		pairOwners map[string]string
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
			artData, err := st.Fetch(wantArts)
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
			reps = vals
			return err
		},
		func() error {
			keys, vals, err := replayValues[snapshotItem](chunks[sectionItems], "item", true)
			items = make(map[string][]snapshotItem)
			for i, k := range keys {
				eco, _, _ := splitEcoKey(k)
				items[eco] = append(items[eco], vals[i])
			}
			return err
		},
		func() error {
			keys, vals, err := replayValues[[]string](chunks[sectionImports], "imports", false)
			imports = make(map[string][]string, len(keys))
			for i, front := range keys {
				imports[front] = vals[i]
			}
			return err
		},
		func() error {
			keys, vals, err := replayValues[[]textsim.Cluster](chunks[sectionPartitions], "partition", true)
			partitions = make(map[string]map[string][]textsim.Cluster)
			for i, k := range keys {
				eco, inner, _ := splitEcoKey(k)
				if partitions[eco] == nil {
					partitions[eco] = make(map[string][]textsim.Cluster)
				}
				partitions[eco][inner] = vals[i]
			}
			return err
		},
		func() error {
			keys, vals, err := replayValues[string](chunks[sectionPairOwners], "pair owner", false)
			pairOwners = make(map[string]string, len(keys))
			for i, pk := range keys {
				pairOwners[pk] = vals[i]
			}
			return err
		},
	)
	if err != nil {
		return nil, err
	}

	e, err := restoreFromParts(ds, g, &engineSnapshot{
		Version:    snapshotVersion,
		Config:     man.Config,
		Reports:    reps,
		Partitions: partitions,
		Items:      items,
		Imports:    imports,
		Posting:    man.Posting,
		PairOwners: pairOwners,
		AppliedSeq: man.AppliedSeq,
		FeedPos:    man.FeedPos,
	})
	if err != nil {
		return nil, err
	}

	// Attach the store with the manifest's logs instead of a blank re-base:
	// the restored engine keeps appending deltas to the same chunk chains.
	e.mu.Lock()
	e.attachStoreLocked(st)
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
	e.mu.Unlock()
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

// CollectManifestRefs returns every blob a serialized snapshot references:
// the manifest's section chunks plus the artifact blobs its dataset chunks
// point at. Compaction unions this over every retained snapshot so archived
// manifests stay restorable. Monolithic (pre-v5) snapshots reference
// nothing. st resolves the dataset chunks (their entry records carry the
// artifact refs), which decode concurrently.
func CollectManifestRefs(r io.Reader, st *castore.Store) (map[string]bool, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("manifest refs: %w", err)
	}
	var man manifestSnapshot
	if err := json.Unmarshal(buf, &man); err != nil {
		return nil, fmt.Errorf("manifest refs decode: %w", err)
	}
	live := make(map[string]bool)
	if man.Version != snapshotVersionSegmented {
		return live, nil
	}
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
