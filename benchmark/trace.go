package main

// Outside-in tracing. Spans are recorded in the benchmark's own code around
// each call into a module, plus at the two seams the modules export: a
// counting wal.FS (handed to wal.Open and castore.Open) and a counting
// registry.View (handed to Pipeline.SetExternalView). Nothing inside the
// program is instrumented. Spans stay in memory and are written out once,
// when the run ends.

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"malgraph/internal/ecosys"
	"malgraph/internal/registry"
	"malgraph/internal/wal"
)

// Span is one timed call. Op groups a root span (an operation the load
// generator issued: an ack, a fresh read, a build, a recovery) with every
// span it caused; Kind is the root's operation kind.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root
	Op     int           `json:"op"`
	Kind   string        `json:"kind"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s Span) dur() time.Duration { return s.End - s.Start }

// Tracer records spans. Begin and End are called only from the driving
// goroutine, which keeps the open-span stack; the seams may fire from the
// store's compaction goroutine too, so every access holds mu. A nil
// *Tracer records nothing, which is how the measured run pays no tracing.
type Tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
	stack []int
	ops   int
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Root opens a new operation of the given kind and returns its span ID.
func (t *Tracer) Root(kind string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.openLocked(kind, kind, -1, t.ops)
}

// Begin opens a child of the innermost open span.
func (t *Tracer) Begin(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent, op, kind := -1, 0, ""
	if n := len(t.stack); n > 0 {
		p := t.spans[t.stack[n-1]]
		parent, op, kind = p.ID, p.Op, p.Kind
	}
	return t.openLocked(name, kind, parent, op)
}

func (t *Tracer) openLocked(name, kind string, parent, op int) int {
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Op: op, Kind: kind, Name: name, Start: time.Since(t.t0)})
	t.stack = append(t.stack, id)
	return id
}

// End closes span id, which must be the innermost open span.
func (t *Tracer) End(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = time.Since(t.t0)
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
}

// leaf records a completed child span of the innermost open span, for
// calls observed at a seam. Only calls made while the innermost open span
// is named inside are recorded (inside == "" accepts any open span).
func (t *Tracer) leaf(name, inside string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.stack)
	if n == 0 {
		return
	}
	p := t.spans[t.stack[n-1]]
	if inside != "" && p.Name != inside {
		return
	}
	t.spans = append(t.spans, Span{
		ID: len(t.spans), Parent: p.ID, Op: p.Op, Kind: p.Kind, Name: name,
		Start: start.Sub(t.t0), End: end.Sub(t.t0),
	})
}

// Spans returns a copy of everything recorded.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// writeSpans writes one JSON span per line to path.
func writeSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that the union of its children's intervals covers.
func selfTimes(spans []Span) map[int]time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered measures how much of parent's interval the union of kids covers.
func covered(parent Span, kids []Span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	end = -1
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// unattributedShares returns, per root of the given kind, the share of the
// operation's time that no child span covers.
func unattributedShares(spans []Span, kind string) []float64 {
	self := selfTimes(spans)
	var out []float64
	for _, s := range spans {
		if s.Parent < 0 && s.Kind == kind && s.dur() > 0 {
			out = append(out, float64(self[s.ID])/float64(s.dur()))
		}
	}
	return out
}

// durations returns the duration, in ms, of every span with the given name.
func durations(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// perOp returns, for every operation of the given kind, the summed
// duration in ms of its spans with the given name (0 when it has none).
func perOp(spans []Span, kind, name string) []float64 {
	sums := make(map[int]float64)
	var order []int
	for _, s := range spans {
		if s.Kind != kind {
			continue
		}
		if _, ok := sums[s.Op]; !ok {
			sums[s.Op] = 0
			order = append(order, s.Op)
		}
		if s.Name == name {
			sums[s.Op] += ms(s.dur())
		}
	}
	out := make([]float64, 0, len(order))
	for _, op := range order {
		out = append(out, sums[op])
	}
	return out
}

// childSums returns, for every span named one of parents, the summed
// duration in ms of its direct children whose name starts with prefix (the
// seams record their calls as children of the innermost open span).
func childSums(spans []Span, prefix string, parents ...string) []float64 {
	isParent := make(map[string]bool, len(parents))
	for _, p := range parents {
		isParent[p] = true
	}
	sums := make(map[int]float64)
	var order []int
	for _, s := range spans {
		if isParent[s.Name] {
			sums[s.ID] = 0
			order = append(order, s.ID)
		}
	}
	for _, s := range spans {
		if _, ok := sums[s.Parent]; ok && s.Parent >= 0 && strings.HasPrefix(s.Name, prefix) {
			sums[s.Parent] += ms(s.dur())
		}
	}
	out := make([]float64, 0, len(order))
	for _, id := range order {
		out = append(out, sums[id])
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// countingFS is the wal.FS seam: it counts the bytes written and the syncs
// of one layer (the journal or the content store) and, with a tracer,
// records each write and sync as a span of that layer. Calls made while a
// compaction is marked running are counted as compaction bytes.
type countingFS struct {
	inner      wal.FS
	tr         *Tracer
	layer      string
	inside     string // record spans only under an open span of this name ("" = any)
	bytes      atomic.Int64
	syncs      atomic.Int64
	compacting atomic.Bool
	compactB   atomic.Int64
}

func newCountingFS(layer, inside string, tr *Tracer) *countingFS {
	return &countingFS{inner: wal.OSFS(), tr: tr, layer: layer, inside: inside}
}

func (c *countingFS) MkdirAll(dir string) error { return c.inner.MkdirAll(dir) }

func (c *countingFS) OpenFile(name string) (wal.File, error) {
	f, err := c.inner.OpenFile(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) SyncDir(dir string) error {
	start := time.Now()
	err := c.inner.SyncDir(dir)
	c.syncs.Add(1)
	c.tr.leaf(c.layer+".sync", c.inside, start, time.Now())
	return err
}

type countingFile struct {
	wal.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.fs.bytes.Add(int64(n))
	if f.fs.compacting.Load() {
		f.fs.compactB.Add(int64(n))
	}
	f.fs.tr.leaf(f.fs.layer+".write", f.fs.inside, start, time.Now())
	return n, err
}

func (f *countingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.fs.syncs.Add(1)
	f.fs.tr.leaf(f.fs.layer+".sync", f.fs.inside, start, time.Now())
	return err
}

// countingView is the registry.View seam: it counts artifact recoveries
// and their hits, and records each call as a registry span.
type countingView struct {
	inner registry.View
	tr    *Tracer
	calls atomic.Int64
	hits  atomic.Int64
}

func (v *countingView) Recover(coord ecosys.Coord, t time.Time) (*ecosys.Artifact, string, error) {
	start := time.Now()
	a, src, err := v.inner.Recover(coord, t)
	v.calls.Add(1)
	if err == nil && a != nil {
		v.hits.Add(1)
	}
	v.tr.leaf("registry.recover", "", start, time.Now())
	return a, src, err
}

func (v *countingView) ReleaseInfo(coord ecosys.Coord) (ecosys.Release, bool) {
	start := time.Now()
	r, ok := v.inner.ReleaseInfo(coord)
	v.tr.leaf("registry.release_info", "", start, time.Now())
	return r, ok
}
