package main

// The phases every workload is assembled from: pipeline set-up, the
// one-shot build, the durable closed-loop stream, and recovery. Each
// phase drives the public API exactly as an operator or researcher does
// and appends its samples to a run.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"malgraph"
	"malgraph/internal/castore"
	"malgraph/internal/collect"
	"malgraph/internal/core"
	"malgraph/internal/crawler"
	"malgraph/internal/reports"
	"malgraph/internal/wal"
)

const (
	// streamBatches is how many closed-loop batches the observation
	// stream is cut into, as `malgraphctl push -batches` cuts it.
	streamBatches = 150
	// checkpointBudget is serve's -checkpoint-bytes policy: checkpoint
	// inline, before the ack, once this many journal bytes accumulate.
	// At scale 0.2 the stream journals about 8 MB, so about one batch in
	// five carries a checkpoint: well over the ten checkpoints a stream
	// needs, and enough that the ack p90 sits inside the checkpointing
	// batches rather than on the edge between the two kinds.
	checkpointBudget = 256 << 10
	// compactSegments is serve's compaction trigger: once the store holds
	// this many segments, compact off the ack path.
	compactSegments = 8
	// readIDs is the size of the poller's fixed Node lookup set: enough
	// nodes that the read median, which sits on the middle node's degree,
	// is the same from one seed's graph to the next.
	readIDs = 256
	// readWindow is how long lookups run after a build or a recovery.
	readWindow = 100 * time.Millisecond
)

// run accumulates one workload run's samples (setup, builds and recovery
// in seconds, readUS in µs, the other times in ms), failure ledger,
// correctness checks and traced counters.
type run struct {
	seed    uint64
	workdir string
	tr      *Tracer

	setup, builds, ack, fresh, checkpoint, recovery []float64
	readUS                                          []float64
	obsAcked                                        int
	publisherMS                                     float64
	reports                                         []*reports.Report // see inputReports
	crawlPages                                      int               // pages the single-fetcher crawl fetched
	crawlDiffs                                      int               // set-ups whose own crawl fetched another count

	led    *ledger
	checks []check

	// Traced-run counters.
	walFS, storeFS *countingFS
	view           *countingView
	ingests        []core.IngestStats
	blocks         []float64
	manifestBytes  []float64
	chainRefs      []float64
	compactMS      []float64
	replayRecords  []float64
	segments       int
	spaceAmp       float64
	shadow         *shadow
	compactMu      sync.Mutex // compactMS is appended by the compaction goroutine
}

// check is one correctness gate outcome.
type check struct {
	name string
	ok   bool
	msg  string
}

func (r *run) gate(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, msg: fmt.Sprintf(format, args...)})
}

func (r *run) config(scale float64) malgraph.Config {
	return malgraph.Config{Seed: r.seed, Scale: scale}
}

// newPipeline builds the world, collects the corpus and crawls the report
// web — the set-up every serve or run process pays before its first
// ingest — and returns how long that took, in seconds.
func (r *run) newPipeline(scale float64) (*malgraph.Pipeline, float64, error) {
	// Hand the last phase's heap back to the OS, so that every phase grows
	// its heap from the same state, as a fresh process does, and the peak
	// RSS is one phase's peak rather than what earlier phases left behind.
	debug.FreeOSMemory()
	start := time.Now()
	p, err := malgraph.NewStreamingPipeline(context.Background(), r.config(scale), 1)
	if err != nil {
		return nil, 0, fmt.Errorf("set up pipeline: %w", err)
	}
	el := time.Since(start).Seconds()
	if r.view != nil {
		r.view.inner = p.World.Fleet
		p.SetExternalView(r.view)
	}
	r.inputReports(p)
	if p.Crawl.Fetched != r.crawlPages {
		r.crawlDiffs++
	}
	return p, el, nil
}

// inputReports is the report corpus every workload ingests: the world's
// report web crawled by a single fetcher, computed once per run. The
// pipeline's own set-up crawl runs several fetchers, and its search
// expansion depends on which fetch finishes first, so set-ups of one world
// can fetch different page counts and find different reports; one fetcher
// visits pages in a fixed order, so one seed always gives the same reports,
// and with them the same ingests, Results and failures.
func (r *run) inputReports(p *malgraph.Pipeline) []*reports.Report {
	if r.reports == nil {
		w := p.World
		cr := crawler.New(w.Web, w.Web, crawler.Config{MaxPages: p.Config.MaxPages, Workers: 1})
		res := cr.Crawl(context.Background(), w.SeedURLs)
		r.reports = reports.FromPages(res.Relevant, w.Config.CollectAt)
		r.crawlPages = res.Fetched
	}
	return r.reports
}

// lookupIDs picks the poller's fixed Node lookup set: evenly spaced
// coordinates of the timeline-ordered observation stream.
func lookupIDs(obs []collect.Observation) []string {
	ids := make([]string, 0, readIDs)
	for j := 0; j < readIDs && len(obs) > 0; j++ {
		ids = append(ids, core.NodeID(obs[(2*j+1)*len(obs)/(2*readIDs)].Coord))
	}
	return ids
}

// reads performs rounds of the fixed lookup set, one sample per Stats +
// Node pair: at least one round, then more until window has elapsed. A
// window spreads the samples over the garbage collector's cycles instead
// of one instant of them (the traced run keeps to one round).
func (r *run) reads(p *malgraph.Pipeline, ids []string, window time.Duration) {
	if r.tr != nil {
		window = 0
	}
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < window; i++ {
		for _, id := range ids {
			op := r.tr.Root("read")
			sp := r.tr.Begin("malgraph.read")
			start := time.Now()
			st := p.Stats()
			_, _, found := p.Node(id)
			el := time.Since(start)
			r.tr.End(sp)
			r.tr.End(op)
			var err error
			if st.Nodes == 0 && found {
				err = errors.New("node found in an empty graph")
			}
			r.led.record("read", err)
			r.readUS = append(r.readUS, float64(el)/float64(time.Microsecond))
		}
	}
}

// corpusBatch is a pipeline's collected dataset and the run's input
// reports as one ingest batch.
func (r *run) corpusBatch(p *malgraph.Pipeline) core.Batch {
	src, _ := p.Source()
	return malgraph.BatchFeed(src, r.inputReports(p), 1)[0]
}

// build ingests a collected corpus as one batch into the fresh pipeline p
// and computes the full Results JSON: the researcher's reproduction job,
// recorded as a build sample. With primary set the build is the workload's
// headline operation and its ingest and Results also count as ack and
// fresh samples.
func (r *run) build(p *malgraph.Pipeline, corpus core.Batch, obsCount int, primary bool) ([]byte, error) {
	op := r.tr.Root("build")
	defer r.tr.End(op)
	start := time.Now()
	sp := r.tr.Begin("malgraph.ingest")
	st, err := p.Append(corpus)
	r.tr.End(sp)
	acked := time.Now()
	kind := "build"
	if primary {
		kind = "ack"
	}
	r.led.record(kind, err)
	if err != nil {
		return nil, fmt.Errorf("build ingest: %w", err)
	}
	if primary {
		r.ingests = append(r.ingests, st)
		r.ack = append(r.ack, ms(acked.Sub(start)))
		r.obsAcked += obsCount
		r.publisherMS += ms(acked.Sub(start))
	}
	b, err := r.results(p, acked, allBlocks(), primary)
	if err != nil {
		return nil, err
	}
	r.builds = append(r.builds, time.Since(start).Seconds())
	return b, nil
}

// engineEmptier returns a function that gives p back the empty engine it
// has now, so that one set-up serves many builds and restores.
func engineEmptier(p *malgraph.Pipeline) (func() error, error) {
	var empty bytes.Buffer
	if err := p.SnapshotEngine(&empty); err != nil {
		return nil, fmt.Errorf("snapshot the empty engine: %w", err)
	}
	return func() error {
		if err := p.RestoreEngine(bytes.NewReader(empty.Bytes())); err != nil {
			return fmt.Errorf("empty the engine: %w", err)
		}
		return nil
	}, nil
}

// dropBuildSamples discards the build, ack, fresh and read samples taken
// so far: a warm-up's.
func (r *run) dropBuildSamples() {
	r.builds, r.ack, r.fresh, r.readUS = nil, nil, nil, nil
	r.obsAcked, r.publisherMS = 0, 0
}

// results reads the current epoch's Results JSON — what a poller fetches
// after an ack — and, with sample set, records the time since acked as a
// fresh sample.
func (r *run) results(p *malgraph.Pipeline, acked time.Time, dirty blocks, sample bool) ([]byte, error) {
	ep := p.CurrentEpoch()
	sp := r.tr.Begin("malgraph.results")
	_, err := ep.Results()
	r.tr.End(sp)
	var b []byte
	if err == nil {
		sp = r.tr.Begin("malgraph.results_json")
		b, err = ep.ResultsJSON()
		r.tr.End(sp)
	}
	r.led.record("results", err)
	if err != nil {
		return nil, fmt.Errorf("results of epoch %d: %w", ep.ID(), err)
	}
	if sample {
		r.fresh = append(r.fresh, ms(time.Since(acked)))
		r.blocks = append(r.blocks, float64(dirty.count()))
	}
	return b, nil
}

// durable is one serve-like durable pipeline: a journal and a content
// store attached, checkpoints on serve's journal-bytes policy, and
// compaction scheduled the way serve schedules it.
type durable struct {
	r        *run
	p        *malgraph.Pipeline
	dir      string
	journal  *wal.Log
	store    *castore.Store
	ckMu     sync.Mutex // serializes checkpoints with compaction, as serve does
	compactW sync.WaitGroup
}

func (d *durable) manifest() string { return filepath.Join(d.dir, "manifest") }

// openDurable attaches a fresh store and journal under dir (serve's cold
// start with -wal, -store and -snapshot).
func (r *run) openDurable(p *malgraph.Pipeline, dir string, journal bool) (*durable, error) {
	d := &durable{r: r, p: p, dir: dir}
	var storeFS, walFS wal.FS
	if r.tr != nil {
		storeFS, walFS = r.storeFS, r.walFS
	}
	var err error
	if d.store, err = castore.Open(filepath.Join(dir, "store"), storeFS); err != nil {
		return nil, err
	}
	p.AttachStore(d.store)
	if !journal {
		return d, nil
	}
	if d.journal, err = wal.Open(filepath.Join(dir, "wal"), walFS); err != nil {
		return nil, err
	}
	p.AttachJournal(d.journal)
	return d, nil
}

// close waits for a scheduled compaction and closes the journal.
func (d *durable) close() error {
	d.compactW.Wait()
	if d.journal == nil {
		return nil
	}
	err := d.journal.Close()
	d.journal = nil
	return err
}

// maybeCheckpoint is serve's policy after each accepted POST.
func (d *durable) maybeCheckpoint() {
	if d.journal == nil || d.journal.AppendedBytes() < checkpointBudget {
		return
	}
	d.checkpoint()
}

// checkpoint writes the manifest crash-safely and truncates the journal
// (Pipeline.Checkpoint), then schedules compaction when due.
func (d *durable) checkpoint() {
	r := d.r
	d.ckMu.Lock()
	defer d.ckMu.Unlock()
	sp := r.tr.Begin("malgraph.checkpoint")
	start := time.Now()
	_, err := d.p.Checkpoint(func(snapshot func(io.Writer) error) error {
		return writeFileAtomic(d.manifest(), snapshot)
	})
	el := time.Since(start)
	r.tr.End(sp)
	r.led.record("checkpoint", err)
	if err != nil {
		return
	}
	r.checkpoint = append(r.checkpoint, ms(el))
	if r.tr != nil {
		if fi, err := os.Stat(d.manifest()); err == nil {
			r.manifestBytes = append(r.manifestBytes, float64(fi.Size()))
		}
		r.chainRefs = append(r.chainRefs, float64(len(d.p.LiveRefs())))
	}
	if d.store.SegmentCount() >= compactSegments {
		d.compactW.Add(1)
		go d.compact()
	}
}

// compact merges the store's segments off the ack path, keeping every blob
// the engine or the published manifest references.
func (d *durable) compact() {
	defer d.compactW.Done()
	d.ckMu.Lock()
	defer d.ckMu.Unlock()
	r := d.r
	if r.tr != nil {
		r.storeFS.compacting.Store(true)
		defer r.storeFS.compacting.Store(false)
	}
	start := time.Now()
	err := d.compactLocked()
	r.led.record("compaction", err)
	if err == nil {
		r.compactMu.Lock()
		r.compactMS = append(r.compactMS, ms(time.Since(start)))
		r.compactMu.Unlock()
	}
}

func (d *durable) compactLocked() error {
	live := d.p.LiveRefs()
	f, err := os.Open(d.manifest())
	if err != nil {
		return err
	}
	refs, err := core.CollectManifestRefs(f, d.store)
	f.Close()
	if err != nil {
		return err
	}
	for h := range refs {
		live[h] = true
	}
	_, err = d.store.Compact(live)
	return err
}

// stream replays the observation timeline through a fresh durable pipeline
// in streamBatches closed-loop batches, as `malgraphctl push` drives a
// serve process: each batch is an observations ack followed by a reports
// ack, with serve's checkpoint policy inline, after which a poller reads
// the epoch's Results JSON and the fixed lookup set. It returns the
// durable pipeline, left open for the caller, and the pipeline's set-up
// time in seconds.
func (r *run) stream(scale float64, dir string) (*durable, float64, error) {
	p, setup, err := r.newPipeline(scale)
	if err != nil {
		return nil, 0, err
	}
	obs := timeline(p)
	reps := r.inputReports(p)
	ids := lookupIDs(obs)
	d, err := r.openDurable(p, dir, true)
	if err != nil {
		return nil, 0, err
	}
	var sh *shadow
	if r.tr != nil {
		sh = newShadow(p)
		r.shadow = sh
	}
	dirty := allBlocks() // nothing has computed Results yet
	for i := 0; i < streamBatches; i++ {
		lo, hi := i*len(obs)/streamBatches, (i+1)*len(obs)/streamBatches
		rlo, rhi := i*len(reps)/streamBatches, (i+1)*len(reps)/streamBatches
		op := r.tr.Root("ack")
		start := time.Now()
		err := r.append(d, "malgraph.append_obs", obs[lo:hi], nil, &dirty)
		if err == nil && rhi > rlo {
			err = r.append(d, "malgraph.append_reports", nil, reps[rlo:rhi], &dirty)
		}
		acked := time.Now()
		r.tr.End(op)
		r.led.record("ack", err)
		if err != nil {
			d.close()
			return nil, 0, fmt.Errorf("batch %d/%d: %w", i+1, streamBatches, err)
		}
		r.ack = append(r.ack, ms(acked.Sub(start)))
		r.publisherMS += ms(acked.Sub(start))
		r.obsAcked += hi - lo
		if sh != nil {
			if err := sh.ingest(r.tr, obs[lo:hi], reps[rlo:rhi]); err != nil {
				d.close()
				return nil, 0, err
			}
		}
		op = r.tr.Root("fresh")
		_, rerr := r.results(p, acked, dirty, true)
		r.tr.End(op)
		if rerr == nil {
			if sh != nil {
				sh.results(r.tr, dirty)
			}
			dirty = blocks{}
		}
		r.reads(p, ids, 0)
	}
	return d, setup, nil
}

// append is one POST of the stream with serve's post-ingest checkpoint
// check.
func (r *run) append(d *durable, name string, obs []collect.Observation, reps []*reports.Report, dirty *blocks) error {
	sp := r.tr.Begin(name)
	st, _, err := d.p.AppendExternal(obs, reps)
	r.tr.End(sp)
	if err != nil {
		return err
	}
	r.ingests = append(r.ingests, st)
	dirty.merge(st)
	d.maybeCheckpoint()
	return nil
}

// recover restarts from a durable directory the way serve does: open the
// store, restore the manifest into q, open the journal and replay its
// suffix. q is any set-up pipeline of the same world; the restore replaces
// its engine, so the set-up is paid before the clock starts.
func (r *run) recover(q *malgraph.Pipeline, dir string) error {
	var storeFS, walFS wal.FS
	if r.tr != nil {
		storeFS, walFS = r.storeFS, r.walFS
	}
	runtime.GC() // start each restore from the same heap state, whatever ran before it
	op := r.tr.Root("recovery")
	start := time.Now()
	replayed, err := func() (int, error) {
		sp := r.tr.Begin("castore.open")
		st, err := castore.Open(filepath.Join(dir, "store"), storeFS)
		r.tr.End(sp)
		if err != nil {
			return 0, err
		}
		f, err := os.Open(filepath.Join(dir, "manifest"))
		if err != nil {
			return 0, err
		}
		sp = r.tr.Begin("malgraph.restore")
		err = q.RestoreEngineWithStore(f, st)
		r.tr.End(sp)
		f.Close()
		if err != nil {
			return 0, err
		}
		journalDir := filepath.Join(dir, "wal")
		if _, err := os.Stat(journalDir); errors.Is(err, os.ErrNotExist) {
			return 0, nil // store-only checkpoint: no journal to replay
		}
		sp = r.tr.Begin("wal.open")
		l, err := wal.Open(journalDir, walFS)
		r.tr.End(sp)
		if err != nil {
			return 0, err
		}
		defer l.Close()
		sp = r.tr.Begin("malgraph.replay")
		n, err := q.ReplayJournal(l)
		r.tr.End(sp)
		return n, err
	}()
	el := time.Since(start)
	r.tr.End(op)
	r.led.record("recovery", err)
	if err != nil {
		return fmt.Errorf("recover from %s: %w", dir, err)
	}
	r.recovery = append(r.recovery, el.Seconds())
	r.replayRecords = append(r.replayRecords, float64(replayed))
	return nil
}

// writeFileAtomic durably replaces path with what write produces: temp
// file, fsync, rename, directory fsync — serve's checkpoint discipline.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".manifest-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// blocks mirrors the pipeline's Results invalidation rule: which RQ blocks
// an ingest's stats make the next Results recompute.
type blocks struct{ rq1, rq2, rq3, rq4, behaviors, validation bool }

func allBlocks() blocks { return blocks{true, true, true, true, true, true} }

func (b *blocks) merge(st core.IngestStats) {
	if st.UpdatedEntries > 0 {
		*b = allBlocks()
		return
	}
	if st.DatasetChanged() {
		b.rq1, b.validation = true, true
	}
	if st.SimilarChanged() {
		b.rq2, b.behaviors = true, true
	}
	if st.DependencyChanged() {
		b.rq3 = true
	}
	if st.CoexistingChanged() {
		b.rq4, b.behaviors = true, true
	}
}

func (b blocks) count() int {
	n := 0
	for _, v := range []bool{b.rq1, b.rq2, b.rq3, b.rq4, b.behaviors, b.validation} {
		if v {
			n++
		}
	}
	return n
}
