package castore

// Segment layout contract under test: a segment's index is untrusted input
// — Open must reject any byte range that leaves the body, any range count
// that disagrees with the hash count, without panicking and without
// allocating on the ranges' say-so — and a segment in the layout without
// ranges opens, fetches, and compacts into the current layout.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// segment is the segment layout written before the index carried byte
// ranges: the hash index, then the blob records in the same order. Open
// still reads it; tests hand-write it to cover that path.
type segment struct {
	Hashes []string `json:"hashes"`
	Blobs  []Blob   `json:"blobs"`
}

// legacySegment encodes blobs in the layout without ranges, exactly as
// that writer did (json.Encoder, trailing newline).
func legacySegment(t testing.TB, blobs []Blob) []byte {
	t.Helper()
	seg := segment{}
	for _, b := range blobs {
		seg.Hashes = append(seg.Hashes, b.Key)
		seg.Blobs = append(seg.Blobs, b)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(&seg); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// currentSegment returns the bytes Append writes for blobs.
func currentSegment(t testing.TB, blobs []Blob) []byte {
	t.Helper()
	dir := t.TempDir()
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(blobs); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf(segPattern, 1)))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// writeSeg writes data as segment id of a fresh store directory.
func writeSeg(t testing.TB, dir string, id int, data []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf(segPattern, id)), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentIndexRecordsByteRanges(t *testing.T) {
	blobs := []Blob{blobOf("one"), blobOf("two"), blobOf(strings.Repeat("three", 100))}
	data := currentSegment(t, blobs)
	// Both layouts decode as the same JSON document.
	var seg segment
	if err := json.Unmarshal(data, &seg); err != nil {
		t.Fatalf("segment is not a JSON document: %v", err)
	}
	if len(seg.Blobs) != len(blobs) {
		t.Fatalf("segment carries %d blobs, want %d", len(seg.Blobs), len(blobs))
	}
	// Each range, read against the end of the index prefix, is exactly the
	// blob's bytes.
	var idx struct {
		Ranges [][2]int64 `json:"ranges"`
	}
	if err := json.Unmarshal(data, &idx); err != nil {
		t.Fatal(err)
	}
	base := int64(bytes.Index(data, []byte(bodyOpen)))
	for i, b := range blobs {
		off, n := base+idx.Ranges[i][0], idx.Ranges[i][1]
		if got := data[off : off+n]; !bytes.Equal(got, b.Data) {
			t.Fatalf("range %d reads %q, want %q", i, got, b.Data)
		}
	}
}

func TestOpenRejectsUntrustedRanges(t *testing.T) {
	b := blobOf("payload")
	seg := func(ranges string) []byte {
		return []byte(`{"hashes":["` + b.Key + `"],"ranges":` + ranges +
			`,"blobs":[{"key":"` + b.Key + `","data":` + string(b.Data) + `}]}` + "\n")
	}
	// The valid range, for reference: the data starts after the record head.
	valid := fmt.Sprintf("[[%d,%d]]", len(bodyOpen)+len(recordHead)+len(b.Key)+len(recordMid), len(b.Data))
	dir := t.TempDir()
	writeSeg(t, dir, 1, seg(valid))
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("valid hand-written segment: %v", err)
	}
	fetchAll(t, st, []Blob{b})

	for _, c := range []struct{ name, ranges string }{
		{"past-eof", "[[0,100000]]"},
		{"starts-past-eof", "[[100000,1]]"},
		{"huge-length", "[[0,4611686018427387904]]"},
		{"overlaps-index", fmt.Sprintf("[[-20,%d]]", len(b.Data))},
		{"empty-range", "[[0,0]]"},
		{"more-ranges-than-hashes", "[[0,1],[1,1]]"},
		{"fewer-ranges-than-hashes", "[]"},
		{"not-numbers", `[["a","b"]]`},
		{"overflowing-number", "[[0,99999999999999999999]]"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			writeSeg(t, dir, 1, seg(c.ranges))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Open(dir, nil)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("Open accepted a segment with bad ranges")
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Fatalf("Open allocated %d bytes for a %d-byte segment", grew, len(seg(c.ranges)))
			}
		})
	}
}

func TestFetchDetectsTamperedBlobBytes(t *testing.T) {
	b := blobOf("untouched")
	data := currentSegment(t, []Blob{b})
	i := bytes.LastIndex(data, []byte("untouched"))
	data[i] = 'U'
	dir := t.TempDir()
	writeSeg(t, dir, 1, data)
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Fetch([]string{b.Key}); err == nil || !strings.Contains(err.Error(), "content hashes to") {
		t.Fatalf("Fetch of a tampered blob = %v, want a content-hash error", err)
	}
	if _, err := st.Compact(nil); err == nil {
		t.Fatal("Compact copied a tampered blob")
	}
}

// TestLegacySegmentOpensFetchesAndCompacts: a store holding only segments
// in the layout without ranges opens, serves every blob, mixes with newly
// appended segments, and compacts into one segment in the current layout.
func TestLegacySegmentOpensFetchesAndCompacts(t *testing.T) {
	dir := t.TempDir()
	old1 := []Blob{blobOf("legacy-a"), blobOf("legacy-b")}
	old2 := []Blob{blobOf("legacy-c"), blobOf("legacy-a")} // a re-mention
	writeSeg(t, dir, 1, legacySegment(t, old1))
	writeSeg(t, dir, 2, legacySegment(t, old2))
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 3 || st.SegmentCount() != 2 {
		t.Fatalf("Len=%d SegmentCount=%d, want 3 and 2", st.Len(), st.SegmentCount())
	}
	all := []Blob{old1[0], old1[1], old2[0]}
	fetchAll(t, st, all)
	fresh := blobOf("current")
	if _, err := st.Append([]Blob{fresh}); err != nil {
		t.Fatal(err)
	}
	all = append(all, fresh)
	fetchAll(t, st, all)

	if _, err := st.Compact(nil); err != nil {
		t.Fatal(err)
	}
	if st.SegmentCount() != 1 {
		t.Fatalf("SegmentCount=%d after compaction, want 1", st.SegmentCount())
	}
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.json"))
	if err != nil || len(names) != 1 {
		t.Fatalf("segment files after compaction: %v (%v)", names, err)
	}
	data, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"ranges":[[`)) {
		t.Fatal("compaction did not rewrite the legacy segments with ranges")
	}
	re, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	fetchAll(t, re, all)
}

func TestLegacySegmentWithUnbackedHashFailsOpen(t *testing.T) {
	b := blobOf("backed")
	seg := segment{Hashes: []string{b.Key, KeyOf([]byte(`"ghost"`))}, Blobs: []Blob{b}}
	data, err := json.Marshal(&seg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	writeSeg(t, dir, 1, data)
	if _, err := Open(dir, nil); err == nil {
		t.Fatal("Open accepted an indexed hash with no blob body")
	}
}

// FuzzOpenFetch feeds arbitrary bytes to Open as a segment file. Whatever
// Open accepts must fetch and compact without panicking, and every blob
// Fetch returns must hash to its key.
func FuzzOpenFetch(f *testing.F) {
	blobs := []Blob{blobOf("fuzz-a"), blobOf("fuzz-b"), {Key: KeyOf([]byte(`{"k":[1,2]}`)), Data: []byte(`{"k":[1,2]}`)}}
	f.Add(currentSegment(f, blobs))
	f.Add(legacySegment(f, blobs))
	f.Add(currentSegment(f, blobs[:1]))
	f.Add(legacySegment(f, nil))
	f.Add([]byte(`{"hashes":[],"ranges":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		writeSeg(t, dir, 1, data)
		st, err := Open(dir, nil)
		if err != nil {
			return
		}
		st.mu.Lock()
		keys := make([]string, 0, len(st.known))
		for h := range st.known {
			keys = append(keys, h)
		}
		st.mu.Unlock()
		got, err := st.Fetch(keys)
		if err != nil {
			return
		}
		for h, b := range got {
			if KeyOf(b) != h {
				t.Fatalf("Fetch returned blob %s whose bytes hash to %s", h, KeyOf(b))
			}
		}
		if _, err := st.Compact(nil); err != nil {
			t.Fatalf("Compact after a clean Fetch: %v", err)
		}
		re, err := Open(dir, nil)
		if err != nil {
			t.Fatalf("reopen after compaction: %v", err)
		}
		if _, err := re.Fetch(keys); err != nil {
			t.Fatalf("Fetch after compaction: %v", err)
		}
	})
}
