// Package castore is a content-addressed blob store persisted as immutable
// append-only segment files. A blob is an opaque JSON value — an artifact's
// serialised content, a manifest section chunk — keyed by the SHA-256 of
// its bytes (KeyOf), so a blob's key commits to its content: duplicate
// writes dedupe for free, and every read re-verifies the bytes against the
// key.
//
// On-disk layout is one directory of JSON segment files, seg-00000001.json
// upward. A segment is written once — temp file, fsync, rename, directory
// fsync, the same crash discipline as the serve checkpoint's
// writeFileAtomic — and never modified afterwards. A crash mid-write
// leaves only a .castore-* temp file, which Open deletes; a crash
// mid-compaction leaves either the old segments, or the merged segment
// plus some not-yet-unlinked old ones, and because blobs are
// content-addressed the duplicates are harmless: Open keeps the first
// segment that mentions a hash and ignores re-mentions.
//
// Each segment is one JSON document that leads with its index:
//
//	{"hashes":[h0,h1,...],"ranges":[[off0,len0],[off1,len1],...],
//	 "blobs":[{"key":h0,"data":<blob 0>},{"key":h1,"data":<blob 1>},...]}
//
// ranges[i] is the byte range of blob i's bytes, counted from the end of
// the index prefix (the byte after the ranges array). The writer derives
// the ranges from the blob sizes before it writes a body byte, then
// streams the bodies straight to the file, so a segment is never buffered
// whole. Open decodes only the index prefix of each file and checks every
// range against the file size; Fetch and Compact then read exactly the
// wanted ranges and SHA-256-verify each blob, so no segment body is ever
// JSON-decoded.
//
// Segments written before the ranges existed carry only the hashes and
// the blob records. Open finds their ranges with one scan of the body, so
// reads keep a single code path, and the next compaction rewrites them in
// the current layout. Either layout decodes as the same JSON document.
package castore

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"malgraph/internal/parallel"
	"malgraph/internal/wal"
)

// KeyOf returns the content key of a blob: the SHA-256 of its bytes, hex
// encoded. Every blob in the store is addressed — and verified — by it.
func KeyOf(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Blob pairs a content key with its bytes. Key must equal KeyOf(Data);
// Append rejects mismatches rather than store an unverifiable blob.
type Blob struct {
	Key  string          `json:"key"`
	Data json.RawMessage `json:"data"`
}

// segment file names are seg-%08d.json; temp files carry the tempPrefix
// and are garbage from an interrupted write, removed at Open.
const (
	segPattern = "seg-%08d.json"
	tempPrefix = ".castore-"
)

// The fixed text around the blob records of a segment body. The index
// prefix ends just before bodyOpen; a record is recordHead, the key,
// recordMid, the blob bytes and recordTail, with a comma between records.
const (
	bodyOpen   = `,"blobs":[`
	recordHead = `{"key":"`
	recordMid  = `","data":`
	recordTail = `}`
	bodyClose  = "]}\n"
)

// writeBuffer caps the buffer segments stream through; a smaller segment
// gets a buffer of its own size and goes out in one write.
const writeBuffer = 1 << 20

// blobLoc locates one blob: its segment and its absolute byte range.
type blobLoc struct {
	seg int
	off int64
	n   int64
}

// Store is a content-addressed artifact store over one directory of
// immutable segment files. All exported methods are safe for concurrent
// use.
type Store struct {
	fs  wal.FS
	dir string

	mu sync.Mutex
	// known maps blob hash → where its bytes live, guarded by mu.
	known map[string]blobLoc
	// segs lists live segment ids in ascending order, guarded by mu.
	segs []int
	// nextSeg is the id the next written segment takes, guarded by mu.
	// Strictly greater than every id ever used, including unlinked ones,
	// so a lingering pre-crash segment can never collide with a new write.
	nextSeg int
	// compacting serializes compaction runs, guarded by mu.
	compacting bool
}

// Open creates dir if needed, removes interrupted-write temp files, and
// indexes every segment by decoding only its index prefix (segments in
// the layout without ranges are scanned once instead). A nil fs uses the
// real filesystem.
func Open(dir string, fs wal.FS) (*Store, error) {
	if fs == nil {
		fs = wal.OSFS()
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("castore: %w", err)
	}
	st := &Store{
		fs:      fs,
		dir:     dir,
		known:   make(map[string]blobLoc),
		nextSeg: 1,
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("castore: %w", err)
	}
	for _, de := range names {
		name := de.Name()
		if strings.HasPrefix(name, tempPrefix) {
			// Leftover from a write interrupted before rename — never
			// referenced, safe to drop.
			os.Remove(filepath.Join(dir, name))
			continue
		}
		var id int
		if n, err := fmt.Sscanf(name, segPattern, &id); n != 1 || err != nil {
			continue
		}
		hashes, spans, err := readSegmentIndex(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("castore: segment %s: %w", name, err)
		}
		st.segs = append(st.segs, id)
		for i, h := range hashes {
			// First mention wins: after an interrupted compaction the same
			// blob can appear in the merged segment and in an old one, and
			// either copy is byte-identical by construction.
			if _, ok := st.known[h]; !ok {
				st.known[h] = blobLoc{seg: id, off: spans[i][0], n: spans[i][1]}
			}
		}
		if id >= st.nextSeg {
			st.nextSeg = id + 1
		}
	}
	sort.Ints(st.segs)
	return st, nil
}

// readSegmentIndex opens a segment file and reads its index.
func readSegmentIndex(path string) ([]string, [][2]int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	return readIndex(f, info.Size())
}

// readIndex decodes a segment's index prefix: the blob hashes and each
// blob's absolute byte range, checked to lie inside the body. A segment
// without ranges has its body scanned for them. The ranges come from
// untrusted bytes, so nothing is allocated from their values — Fetch
// reads them only after these checks.
func readIndex(f io.ReaderAt, size int64) ([]string, [][2]int64, error) {
	dec := json.NewDecoder(io.NewSectionReader(f, 0, size))
	if err := expectDelim(dec, '{'); err != nil {
		return nil, nil, err
	}
	if err := expectKey(dec, "hashes"); err != nil {
		return nil, nil, err
	}
	var hashes []string
	if err := dec.Decode(&hashes); err != nil {
		return nil, nil, err
	}
	tok, err := dec.Token()
	if err != nil {
		return nil, nil, err
	}
	switch tok {
	case "ranges":
		var spans [][2]int64
		if err := dec.Decode(&spans); err != nil {
			return nil, nil, err
		}
		if len(spans) != len(hashes) {
			return nil, nil, fmt.Errorf("malformed segment: %d ranges for %d hashes", len(spans), len(hashes))
		}
		base := dec.InputOffset()
		for i, sp := range spans {
			off, n := sp[0], sp[1]
			if off < 0 || n <= 0 || base > size || off > size-base || n > size-base-off {
				return nil, nil, fmt.Errorf("malformed segment: blob %d range [%d,+%d) outside body [%d,%d)", i, off, n, base, size)
			}
			spans[i][0] = base + off
		}
		return hashes, spans, nil
	case "blobs":
		spans, err := scanBodies(dec, hashes)
		return hashes, spans, err
	default:
		return nil, nil, fmt.Errorf("malformed segment: expected ranges or blobs, got %v", tok)
	}
}

// scanBodies walks the blob records of a segment without ranges and
// returns each indexed hash's byte range, read off the decoder's offsets.
func scanBodies(dec *json.Decoder, hashes []string) ([][2]int64, error) {
	if err := expectDelim(dec, '['); err != nil {
		return nil, err
	}
	at := make(map[string][2]int64, len(hashes))
	for dec.More() {
		if err := expectDelim(dec, '{'); err != nil {
			return nil, err
		}
		var key string
		var span [2]int64
		for dec.More() {
			tok, err := dec.Token()
			if err != nil {
				return nil, err
			}
			switch tok {
			case "key":
				err = dec.Decode(&key)
			case "data":
				var raw json.RawMessage
				err = dec.Decode(&raw)
				end := dec.InputOffset()
				span = [2]int64{end - int64(len(raw)), int64(len(raw))}
			default:
				err = dec.Decode(new(json.RawMessage))
			}
			if err != nil {
				return nil, err
			}
		}
		if err := expectDelim(dec, '}'); err != nil {
			return nil, err
		}
		if _, dup := at[key]; !dup && span[1] > 0 {
			at[key] = span
		}
	}
	spans := make([][2]int64, len(hashes))
	for i, h := range hashes {
		sp, ok := at[h]
		if !ok {
			return nil, fmt.Errorf("malformed segment: indexed blob %s has no body", h)
		}
		spans[i] = sp
	}
	return spans, nil
}

func expectDelim(dec *json.Decoder, want json.Delim) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if d, ok := tok.(json.Delim); !ok || d != want {
		return fmt.Errorf("malformed segment: expected %q, got %v", want, tok)
	}
	return nil
}

func expectKey(dec *json.Decoder, want string) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if key, ok := tok.(string); !ok || key != want {
		return fmt.Errorf("malformed segment: expected %s index, got %v", want, tok)
	}
	return nil
}

// Dir returns the store's directory.
func (st *Store) Dir() string { return st.dir }

// Len returns the number of distinct blobs indexed.
func (st *Store) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.known)
}

// SegmentCount returns the number of live segment files.
func (st *Store) SegmentCount() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.segs)
}

// Has reports whether the blob with the given hash is stored.
func (st *Store) Has(hash string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	_, ok := st.known[hash]
	return ok
}

// Missing returns, preserving order, the subset of hashes not yet stored.
func (st *Store) Missing(hashes []string) []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []string
	seen := make(map[string]bool, len(hashes))
	for _, h := range hashes {
		if seen[h] {
			continue
		}
		seen[h] = true
		if _, ok := st.known[h]; !ok {
			out = append(out, h)
		}
	}
	return out
}

// Append durably stores every blob not already present as one new
// segment, and returns the number of blobs written. Blobs whose key is
// already indexed are skipped (content-addressing makes the stored copy
// equivalent). An all-duplicates or empty batch writes nothing. The
// segment is crash-safe: temp → write → fsync → rename → directory fsync,
// so after Append returns the blobs survive power loss, and a crash
// before the rename leaves no trace beyond a temp file Open removes.
func (st *Store) Append(blobs []Blob) (int, error) {
	for _, b := range blobs {
		if got := KeyOf(b.Data); got != b.Key {
			return 0, fmt.Errorf("castore: blob key %s does not match content key %s", b.Key, got)
		}
		if !json.Valid(b.Data) {
			return 0, fmt.Errorf("castore: blob %s is not a JSON value", b.Key)
		}
	}
	st.mu.Lock()
	var fresh []Blob
	inSeg := make(map[string]bool, len(blobs))
	for _, b := range blobs {
		h := b.Key
		if _, ok := st.known[h]; ok {
			continue
		}
		if inSeg[h] {
			continue
		}
		inSeg[h] = true
		fresh = append(fresh, b)
	}
	if len(fresh) == 0 {
		st.mu.Unlock()
		return 0, nil
	}
	id := st.nextSeg
	st.nextSeg++
	st.mu.Unlock()

	hashes := make([]string, len(fresh))
	sizes := make([]int64, len(fresh))
	for i, b := range fresh {
		hashes[i] = b.Key
		sizes[i] = int64(len(b.Data))
	}
	offs, err := st.writeSegment(id, hashes, sizes, func(i int) ([]byte, error) { return fresh[i].Data, nil })
	if err != nil {
		return 0, err
	}

	st.mu.Lock()
	st.segs = append(st.segs, id)
	sort.Ints(st.segs)
	for i, h := range hashes {
		if _, ok := st.known[h]; !ok {
			st.known[h] = blobLoc{seg: id, off: offs[i], n: sizes[i]}
		}
	}
	st.mu.Unlock()
	return len(hashes), nil
}

// writeSegment streams one segment file with full crash discipline and
// returns each blob's absolute offset. The index is computed from the
// sizes alone; body(i) supplies blob i's bytes (exactly sizes[i] of them)
// when the writer reaches it, so only one blob need be in hand at a time.
func (st *Store) writeSegment(id int, hashes []string, sizes []int64, body func(i int) ([]byte, error)) (offs []int64, err error) {
	hashJSON, err := json.Marshal(hashes)
	if err != nil {
		return nil, fmt.Errorf("castore: encode index: %w", err)
	}
	prefix := append([]byte(`{"hashes":`), hashJSON...)
	prefix = append(prefix, `,"ranges":[`...)
	rel := make([]int64, len(hashes))
	at := int64(len(bodyOpen))
	for i, h := range hashes {
		if i > 0 {
			at++ // the comma between records
			prefix = append(prefix, ',')
		}
		at += int64(len(recordHead) + len(h) + len(recordMid))
		rel[i] = at
		prefix = append(prefix, '[')
		prefix = strconv.AppendInt(prefix, at, 10)
		prefix = append(prefix, ',')
		prefix = strconv.AppendInt(prefix, sizes[i], 10)
		prefix = append(prefix, ']')
		at += sizes[i] + int64(len(recordTail))
	}
	prefix = append(prefix, ']')
	base := int64(len(prefix))

	name := fmt.Sprintf(segPattern, id)
	tmp := filepath.Join(st.dir, tempPrefix+name)
	final := filepath.Join(st.dir, name)
	f, err := st.fs.OpenFile(tmp)
	if err != nil {
		return nil, fmt.Errorf("castore: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	w := bufio.NewWriterSize(f, int(min(base+at+int64(len(bodyClose)), writeBuffer)))
	w.Write(prefix)
	w.WriteString(bodyOpen)
	for i, h := range hashes {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString(recordHead)
		w.WriteString(h)
		w.WriteString(recordMid)
		data, berr := body(i)
		if berr != nil {
			return nil, berr
		}
		if int64(len(data)) != sizes[i] {
			return nil, fmt.Errorf("castore: blob %s is %d bytes, indexed as %d", h, len(data), sizes[i])
		}
		w.Write(data)
		w.WriteString(recordTail)
	}
	w.WriteString(bodyClose)
	// bufio keeps the first write error and returns it from every later
	// call, so checking Flush covers all of the above.
	if err = w.Flush(); err != nil {
		return nil, fmt.Errorf("castore: write segment: %w", err)
	}
	if err = f.Sync(); err != nil {
		return nil, fmt.Errorf("castore: sync segment: %w", err)
	}
	if err = f.Close(); err != nil {
		return nil, fmt.Errorf("castore: close segment: %w", err)
	}
	if err = os.Rename(tmp, final); err != nil {
		return nil, fmt.Errorf("castore: publish segment: %w", err)
	}
	if err = st.fs.SyncDir(st.dir); err != nil {
		return nil, fmt.Errorf("castore: sync dir: %w", err)
	}
	for i := range rel {
		rel[i] += base
	}
	return rel, nil
}

// located is one wanted blob and where the index says it lives.
type located struct {
	hash string
	loc  blobLoc
}

// sortLocated orders blobs by segment, then offset, so each file is read
// front to back.
func sortLocated(ls []located) {
	sort.Slice(ls, func(i, j int) bool {
		if ls[i].loc.seg != ls[j].loc.seg {
			return ls[i].loc.seg < ls[j].loc.seg
		}
		return ls[i].loc.off < ls[j].loc.off
	})
}

// readBlob reads one blob's byte range and verifies it against its key.
func readBlob(f io.ReaderAt, b located) ([]byte, error) {
	data := make([]byte, b.loc.n)
	if _, err := f.ReadAt(data, b.loc.off); err != nil {
		return nil, fmt.Errorf("castore: segment %d: read blob %s: %w", b.loc.seg, b.hash, err)
	}
	if got := KeyOf(data); got != b.hash {
		return nil, fmt.Errorf("castore: segment %d: blob %s content hashes to %s", b.loc.seg, b.hash, got)
	}
	return data, nil
}

// Fetch resolves content keys to blob bytes, reading exactly each blob's
// byte range and re-verifying it against its key. Unknown keys are an
// error.
func (st *Store) Fetch(hashes []string) (map[string]json.RawMessage, error) {
	out := make(map[string]json.RawMessage, len(hashes))
	// A concurrent compaction can unlink a segment between the index
	// lookup and the file open; the blobs then live in the merged segment
	// the updated index points at, so re-resolve and retry. Two rounds
	// always suffice — only one compaction runs at a time, and the merged
	// segment is published before the old ones are unlinked.
	for attempt := 0; ; attempt++ {
		st.mu.Lock()
		var want []located
		seen := make(map[string]bool, len(hashes))
		for _, h := range hashes {
			if seen[h] || out[h] != nil {
				continue
			}
			loc, ok := st.known[h]
			if !ok {
				st.mu.Unlock()
				return nil, fmt.Errorf("castore: unknown blob %s", h)
			}
			seen[h] = true
			want = append(want, located{h, loc})
		}
		st.mu.Unlock()
		if len(want) == 0 {
			return out, nil
		}
		sortLocated(want)
		data, err := st.readLocated(want)
		if err != nil {
			return nil, err
		}
		retry := false
		for i, b := range want {
			if data[i] == nil {
				retry = true
				continue
			}
			out[b.hash] = data[i]
		}
		if !retry {
			return out, nil
		}
		if attempt >= 3 {
			return nil, fmt.Errorf("castore: indexed blob missing from its segment")
		}
	}
}

// readLocated reads and verifies every wanted blob, concurrently across
// Workers() goroutines, opening each segment once. A blob whose segment
// is gone — compacted away since the index lookup — comes back nil.
func (st *Store) readLocated(want []located) ([][]byte, error) {
	files := make(map[int]*os.File)
	defer func() {
		for _, f := range files {
			if f != nil {
				f.Close()
			}
		}
	}()
	for _, b := range want {
		if _, ok := files[b.loc.seg]; ok {
			continue
		}
		f, err := os.Open(filepath.Join(st.dir, fmt.Sprintf(segPattern, b.loc.seg)))
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("castore: %w", err)
		}
		files[b.loc.seg] = f
	}
	data := make([][]byte, len(want))
	err := parallel.ForEachErr(len(want), func(i int) error {
		f := files[want[i].loc.seg]
		if f == nil {
			return nil
		}
		var err error
		data[i], err = readBlob(f, want[i])
		return err
	})
	return data, err
}

// SegmentFile names one live segment for streaming: its file name within
// the store directory.
type SegmentFile struct {
	Name string
}

// OpenSegments opens every live segment for reading and returns the open
// files alongside their names. The files stay readable
// even if a concurrent compaction unlinks them (POSIX semantics), so a
// streaming reader gets a consistent snapshot of the store without
// blocking writers. The caller closes the files.
func (st *Store) OpenSegments() ([]*os.File, []SegmentFile, error) {
	st.mu.Lock()
	ids := append([]int(nil), st.segs...)
	st.mu.Unlock()

	var files []*os.File
	var metas []SegmentFile
	for _, id := range ids {
		name := fmt.Sprintf(segPattern, id)
		f, err := os.Open(filepath.Join(st.dir, name))
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				// Compacted away between snapshot of ids and open; its blobs
				// live on in the merged segment, which a fresh OpenSegments
				// would return.
				continue
			}
			closeAll(files)
			return nil, nil, fmt.Errorf("castore: %w", err)
		}
		files = append(files, f)
		metas = append(metas, SegmentFile{Name: name})
	}
	return files, metas, nil
}

func closeAll(files []*os.File) {
	for _, f := range files {
		f.Close()
	}
}

// Compact merges every live segment into one new segment carrying only
// the blobs in live, then unlinks the old segments. Only the retained
// blobs' byte ranges are read, each verified against its key before it is
// streamed into the merged segment. At most one compaction runs at a
// time; a concurrent call returns immediately with compacted=false.
// Appends may proceed concurrently — the merged segment covers exactly
// the segments captured at entry, and segments appended later are
// untouched.
//
// Crash safety: the merged segment is published atomically before any old
// segment is unlinked, so every crash point leaves all live blobs
// reachable — the worst case is duplicate copies of a blob across the
// merged and not-yet-unlinked old segments, which Open dedupes by hash.
func (st *Store) Compact(live map[string]bool) (compacted bool, err error) {
	st.mu.Lock()
	if st.compacting {
		st.mu.Unlock()
		return false, nil
	}
	st.compacting = true
	oldIDs := append([]int(nil), st.segs...)
	id := st.nextSeg
	st.nextSeg++
	// The retained blobs: every indexed blob of an old segment that is
	// live. Appends never move an indexed blob, so these locations hold
	// until this compaction replaces them.
	var keep []located
	for h, loc := range st.known {
		if containsInt(oldIDs, loc.seg) && (live == nil || live[h]) {
			keep = append(keep, located{h, loc})
		}
	}
	st.mu.Unlock()
	defer func() {
		st.mu.Lock()
		st.compacting = false
		st.mu.Unlock()
	}()

	if len(oldIDs) == 0 {
		return false, nil
	}
	sortLocated(keep)

	replace := func(newSeg int, offs []int64) {
		newLoc := make(map[string]blobLoc, len(keep))
		for i, b := range keep {
			newLoc[b.hash] = blobLoc{seg: newSeg, off: offs[i], n: b.loc.n}
		}
		st.mu.Lock()
		// Keep segments appended while we compacted; drop the merged-away
		// ids and re-point every kept hash at the merged segment. Hashes
		// dropped as dead are deleted unless a concurrent append re-added
		// them into a newer segment.
		var retain []int
		if len(keep) > 0 {
			retain = append(retain, newSeg)
		}
		for _, sid := range st.segs {
			if !containsInt(oldIDs, sid) {
				retain = append(retain, sid)
			}
		}
		sort.Ints(retain)
		st.segs = retain
		for h, loc := range st.known {
			if !containsInt(oldIDs, loc.seg) {
				continue
			}
			if nl, ok := newLoc[h]; ok {
				st.known[h] = nl
			} else {
				delete(st.known, h)
			}
		}
		st.mu.Unlock()
	}

	if len(keep) == 0 {
		// Nothing retained: just drop the old segments.
		replace(id, nil)
	} else {
		offs, err := st.writeMerged(id, keep)
		if err != nil {
			return false, err
		}
		replace(id, offs)
	}

	// Unlink the merged-away segments only after the merged segment is
	// durable and the in-memory index no longer references them.
	for _, oid := range oldIDs {
		if err := os.Remove(filepath.Join(st.dir, fmt.Sprintf(segPattern, oid))); err != nil && !errors.Is(err, os.ErrNotExist) {
			return false, fmt.Errorf("castore: %w", err)
		}
	}
	if err := st.fs.SyncDir(st.dir); err != nil {
		return false, fmt.Errorf("castore: sync dir: %w", err)
	}
	return true, nil
}

// writeMerged streams the kept blobs, in order, from their old segments
// into segment id, verifying each one on the way through.
func (st *Store) writeMerged(id int, keep []located) ([]int64, error) {
	files := make(map[int]*os.File)
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	hashes := make([]string, len(keep))
	sizes := make([]int64, len(keep))
	for i, b := range keep {
		hashes[i] = b.hash
		sizes[i] = b.loc.n
		if files[b.loc.seg] != nil {
			continue
		}
		f, err := os.Open(filepath.Join(st.dir, fmt.Sprintf(segPattern, b.loc.seg)))
		if err != nil {
			return nil, fmt.Errorf("castore: %w", err)
		}
		files[b.loc.seg] = f
	}
	return st.writeSegment(id, hashes, sizes, func(i int) ([]byte, error) {
		return readBlob(files[keep[i].loc.seg], keep[i])
	})
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
