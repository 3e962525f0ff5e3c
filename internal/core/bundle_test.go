package core

// Export bundles are read from untrusted streams (an HTTP body, a file a
// user copied): these tests pin that the reader never panics, never
// allocates more than the bytes actually present, and turns every
// truncation or corruption into an error — and that a bundle it accepts
// re-exports byte-identically.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"malgraph/internal/castore"
)

// seedBundle exports a small engine: half the mini corpus and one report.
func seedBundle(t testing.TB) []byte {
	t.Helper()
	ds, reps := miniDataset(t)
	eng := NewEngine(DefaultConfig())
	half := len(ds.Entries) / 2
	if _, err := eng.Ingest(Batch{Entries: ds.Entries[:half], Reports: reps[:1], At: ds.CollectedAt}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.Export(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// malformedVariants derives broken copies of a valid bundle: truncations at
// the framing boundaries and inside payloads, and single-bit flips spread
// across header, manifest, frames and blobs.
func malformedVariants(bundle []byte) map[string][]byte {
	out := make(map[string][]byte)
	firstNL := bytes.IndexByte(bundle, '\n')
	for _, n := range []int{0, 1, firstNL, firstNL + 1, firstNL + 40, len(bundle) / 3, len(bundle) / 2, len(bundle) - 10, len(bundle) - 1} {
		out[fmt.Sprintf("truncated-%d", n)] = bundle[:n]
	}
	for _, at := range []int{2, firstNL - 3, firstNL, firstNL + 5, len(bundle) / 4, len(bundle) / 2, 3 * len(bundle) / 4, len(bundle) - 1} {
		for _, bit := range []uint{0, 5} {
			flipped := append([]byte(nil), bundle...)
			flipped[at] ^= 1 << bit
			out[fmt.Sprintf("flip-%d-bit%d", at, bit)] = flipped
		}
	}
	out["trailing-byte"] = append(append([]byte(nil), bundle...), '\n')
	return out
}

func TestExportRestoreRoundTripsByteIdentical(t *testing.T) {
	bundle := seedBundle(t)
	eng, err := Restore(bytes.NewReader(bundle), nil)
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := eng.Export(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), bundle) {
		t.Fatal("re-export of a restored bundle differs from the bundle")
	}
}

func TestRestoreRejectsMalformedBundles(t *testing.T) {
	for name, data := range malformedVariants(seedBundle(t)) {
		if _, err := Restore(bytes.NewReader(data), nil); err == nil {
			t.Errorf("%s: malformed bundle restored without error", name)
		}
	}
}

// craftBundle builds a bundle header line with the given sizes, followed
// verbatim by rest.
func craftBundle(t *testing.T, manifest string, manifestSize int64, blobs int, rest string) []byte {
	t.Helper()
	hdr, err := json.Marshal(bundleHeader{
		Format:       bundleFormat,
		Manifest:     castore.KeyOf([]byte(manifest)),
		ManifestSize: manifestSize,
		Blobs:        blobs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return append(append(hdr, '\n'), rest...)
}

// TestRestoreBundleUntrustedSizes: sizes come from the stream. A negative
// size is an error (it used to reach make() and panic), and an enormous one
// fails as a truncation without allocating what it claims.
func TestRestoreBundleUntrustedSizes(t *testing.T) {
	manifest := `{"version":5,"sections":{}}` + "\n"
	frame := func(key string, size int64) string {
		b, _ := json.Marshal(bundleFrame{Key: key, Size: size})
		return string(b) + "\n"
	}
	cases := map[string]struct {
		data []byte
		want string
	}{
		"negative manifest size": {craftBundle(t, manifest, -1, 0, manifest), "negative size"},
		"huge manifest size":     {craftBundle(t, manifest, 1<<40, 0, manifest), "truncated"},
		"negative blob count":    {craftBundle(t, manifest, int64(len(manifest)), -1, manifest), "negative blob count"},
		"negative blob size":     {craftBundle(t, manifest, int64(len(manifest)), 1, manifest+frame(castore.KeyOf(nil), -1)), "negative size"},
		"huge blob size":         {craftBundle(t, manifest, int64(len(manifest)), 1, manifest+frame(castore.KeyOf([]byte("x")), 1<<40)+"x"), "truncated"},
		"missing blob":           {craftBundle(t, manifest, int64(len(manifest)), 1, manifest), "frame 1 of 1"},
	}
	for name, c := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Restore(bytes.NewReader(c.data), nil)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one naming %q", name, err, c.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
			t.Errorf("%s: reading allocated %d bytes for a %d-byte stream", name, grew, len(c.data))
		}
	}
}

// TestRestoreBundleFramingErrors pins the format, duplicate-frame and
// canonical-form refusals.
func TestRestoreBundleFramingErrors(t *testing.T) {
	bundle := seedBundle(t)
	firstNL := bytes.IndexByte(bundle, '\n')

	oldFormat := bytes.Replace(bundle, []byte(bundleFormat), []byte("malgraph-snapshot-bundle/1"), 1)
	if _, err := Restore(bytes.NewReader(oldFormat), nil); err == nil || !strings.Contains(err.Error(), "malgraph-snapshot-bundle/1") {
		t.Errorf("old bundle format error = %v, want one naming the format", err)
	}

	// Re-spaced header: same JSON value, different bytes.
	spaced := append([]byte(nil), bundle[:firstNL]...)
	spaced = bytes.Replace(spaced, []byte(`,"blobs"`), []byte(`, "blobs"`), 1)
	spaced = append(spaced, bundle[firstNL:]...)
	if _, err := Restore(bytes.NewReader(spaced), nil); err == nil || !strings.Contains(err.Error(), "canonical") {
		t.Errorf("non-canonical header error = %v", err)
	}

	// Case-folded field name: encoding/json matches it, the reader must not.
	folded := bytes.Replace(bundle, []byte(`{"key":`), []byte(`{"Key":`), 1)
	if _, err := Restore(bytes.NewReader(folded), nil); err == nil || !strings.Contains(err.Error(), "canonical") {
		t.Errorf("case-folded frame error = %v", err)
	}

	// The same blob framed twice.
	manifest := `{"version":5,"sections":{}}` + "\n"
	blob := "x"
	fr, _ := json.Marshal(bundleFrame{Key: castore.KeyOf([]byte(blob)), Size: 1})
	twice := craftBundle(t, manifest, int64(len(manifest)), 2, manifest+string(fr)+"\n"+blob+string(fr)+"\n"+blob)
	if _, err := Restore(bytes.NewReader(twice), nil); err == nil || !strings.Contains(err.Error(), "framed twice") {
		t.Errorf("duplicate frame error = %v", err)
	}
}

// FuzzRestoreBundle: Restore must never panic on any input, and whatever it
// accepts must be a canonical bundle — the restored engine re-exports
// exactly the input bytes. The seeds include malformed variants, each of
// which must fail.
func FuzzRestoreBundle(f *testing.F) {
	bundle := seedBundle(f)
	f.Add(bundle)
	for _, data := range malformedVariants(bundle) {
		f.Add(data)
	}
	f.Add([]byte(`{"version":4}`))
	f.Add([]byte(`{"format":"malgraph-snapshot-bundle/2","manifest":"","manifestSize":-1,"blobs":0}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		eng, err := Restore(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := eng.Export(&again); err != nil {
			t.Fatalf("restored engine does not export: %v", err)
		}
		if !bytes.Equal(again.Bytes(), data) {
			t.Fatalf("accepted a %d-byte input that re-exports as %d different bytes", len(data), again.Len())
		}
	})
}
