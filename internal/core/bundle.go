package core

// Bundles are Export's self-contained wire format: one stream carrying a v5
// manifest and every blob it references, so it restores without a store.
//
//	{"format":"malgraph-snapshot-bundle/2","manifest":"<key>","manifestSize":N,"blobs":M}\n
//	<N manifest bytes>
//	M × {"key":"<key>","size":S}\n <S blob bytes>
//
// Keys are castore content keys (SHA-256 of the bytes they name), so the
// reader verifies the manifest and every blob against its key as it reads.
// The header and frame lines must be byte-for-byte what the writer emits,
// and nothing may follow the last blob: no byte of a bundle goes
// unchecked, so any truncation or corruption is an error, never a
// different engine. Sizes come from the stream and are untrusted — a
// negative size is rejected, and buffers grow only with the bytes actually
// present.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"malgraph/internal/castore"
)

// bundleFormat names the bundle layout; readers reject any other.
const bundleFormat = "malgraph-snapshot-bundle/2"

type bundleHeader struct {
	Format       string `json:"format"`
	Manifest     string `json:"manifest"` // content key of the manifest bytes
	ManifestSize int64  `json:"manifestSize"`
	Blobs        int    `json:"blobs"`
}

type bundleFrame struct {
	Key  string `json:"key"`
	Size int64  `json:"size"`
}

// writeBundle writes manifest and blobs as a bundle, each distinct blob
// once, in the order given.
func writeBundle(w io.Writer, manifest []byte, blobs []castore.Blob) error {
	seen := make(map[string]bool, len(blobs))
	uniq := make([]castore.Blob, 0, len(blobs))
	for _, b := range blobs {
		if !seen[b.Key] {
			seen[b.Key] = true
			uniq = append(uniq, b)
		}
	}
	bw := bufio.NewWriter(w)
	writeLine := func(v any) {
		line, _ := json.Marshal(v) // plain strings and integers cannot fail
		bw.Write(line)
		bw.WriteByte('\n')
	}
	writeLine(bundleHeader{
		Format:       bundleFormat,
		Manifest:     castore.KeyOf(manifest),
		ManifestSize: int64(len(manifest)),
		Blobs:        len(uniq),
	})
	bw.Write(manifest)
	for _, b := range uniq {
		writeLine(bundleFrame{Key: b.Key, Size: int64(len(b.Data))})
		bw.Write(b.Data)
	}
	return bw.Flush() // bufio keeps the first write error; Flush reports it
}

// bundleBlobs serves a bundle's blobs by content key.
type bundleBlobs map[string]json.RawMessage

// fetch is the bundle's fetchFunc. Every key must be present; the returned
// map may hold more than was asked for.
func (b bundleBlobs) fetch(keys []string) (map[string]json.RawMessage, error) {
	for _, k := range keys {
		if _, ok := b[k]; !ok {
			return nil, fmt.Errorf("bundle carries no blob %s", k)
		}
	}
	return b, nil
}

// readBundle reads the rest of a bundle whose header line is head: the
// manifest, then every framed blob, each verified against its key.
func readBundle(head []byte, br *bufio.Reader) (*manifestSnapshot, bundleBlobs, error) {
	var hdr bundleHeader
	if err := decodeLine(head, &hdr); err != nil {
		return nil, nil, fmt.Errorf("bundle header: %w", err)
	}
	if hdr.Format != bundleFormat {
		return nil, nil, fmt.Errorf("bundle format %q, want %q", hdr.Format, bundleFormat)
	}
	if hdr.Blobs < 0 {
		return nil, nil, fmt.Errorf("bundle header: negative blob count %d", hdr.Blobs)
	}
	raw, err := readSized(br, hdr.ManifestSize, hdr.Manifest)
	if err != nil {
		return nil, nil, fmt.Errorf("bundle manifest: %w", err)
	}
	var man manifestSnapshot
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, nil, fmt.Errorf("bundle manifest decode: %w", err)
	}
	if man.Version != snapshotVersionSegmented {
		return nil, nil, fmt.Errorf("bundle manifest version %d, want %d", man.Version, snapshotVersionSegmented)
	}
	blobs := make(bundleBlobs)
	for i := 0; i < hdr.Blobs; i++ {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, nil, fmt.Errorf("bundle frame %d of %d: %w", i+1, hdr.Blobs, err)
		}
		var fr bundleFrame
		if err := decodeLine(line, &fr); err != nil {
			return nil, nil, fmt.Errorf("bundle frame %d of %d: %w", i+1, hdr.Blobs, err)
		}
		if _, dup := blobs[fr.Key]; dup {
			return nil, nil, fmt.Errorf("bundle blob %s framed twice", fr.Key)
		}
		data, err := readSized(br, fr.Size, fr.Key)
		if err != nil {
			return nil, nil, fmt.Errorf("bundle blob %s: %w", fr.Key, err)
		}
		blobs[fr.Key] = data
	}
	if err := expectEOF(br); err != nil {
		return nil, nil, fmt.Errorf("bundle: %w", err)
	}
	return &man, blobs, nil
}

// decodeLine decodes one newline-terminated header or frame line into v and
// requires it to be exactly the writer's encoding of v.
func decodeLine(line []byte, v any) error {
	body, ok := bytes.CutSuffix(line, []byte{'\n'})
	if !ok {
		return io.ErrUnexpectedEOF
	}
	if err := json.Unmarshal(body, v); err != nil {
		return err
	}
	if canon, err := json.Marshal(v); err != nil || !bytes.Equal(canon, body) {
		return fmt.Errorf("line %.80q is not in canonical form", body)
	}
	return nil
}

// readSized reads exactly size bytes and checks them against their content
// key.
func readSized(br *bufio.Reader, size int64, key string) ([]byte, error) {
	if size < 0 {
		return nil, fmt.Errorf("negative size %d", size)
	}
	data, err := io.ReadAll(io.LimitReader(br, size))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) != size {
		return nil, fmt.Errorf("truncated at %d of %d bytes", len(data), size)
	}
	if got := castore.KeyOf(data); got != key {
		return nil, fmt.Errorf("bytes hash to %s, not their key %q", got, key)
	}
	return data, nil
}

// expectEOF fails unless br is exhausted.
func expectEOF(br *bufio.Reader) error {
	if _, err := br.ReadByte(); err != io.EOF {
		if err == nil {
			err = errors.New("trailing bytes after the end of the stream")
		}
		return err
	}
	return nil
}
