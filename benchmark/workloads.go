package main

// The two workloads. Every workload reports every end-to-end metric, each
// measured on an operation that workload really performs:
//
//	metric            paper-build (scale 1.0)       durable-stream (scale 0.2)
//	setup_s           world+collect+crawl           world+collect+crawl
//	build_s           one-batch ingest + Results    one-shot build of the streamed corpus
//	ack_p50/p90_ms    the one-batch ingest          per-batch observations+reports acks
//	obs_per_s         corpus observations/ingest    observations/publisher time
//	fresh_p50/p90_ms  Results after the ingest      ack → that epoch's Results JSON
//	read_p50_us       Stats+Node after each build,  the poller's Stats+Node
//	                  save and reload
//	checkpoint_p50_ms saving the built corpus       inline journal-budget checkpoints
//	recovery_s        reloading the saved corpus    restart from the stream's end state
//
// Tail figures follow the percentile rule (see stats.go): with fewer than
// 100 samples a p90 metric reports the highest percentile the rule allows,
// the median on paper-build.
//
// A third workload, restart (set-up: three serve-like durable ingests;
// timed: repeated store open + restore + journal replay), was measured and
// dropped: on a 2-vCPU VM its quartile spreads over ten seeds exceeded the
// 0.25 bound (ack_p50 0.26, recovery 0.25–0.28, peak RSS 0.28) in two of
// three sets. durable-stream's closing restarts do the same operations on
// the same kind of state: a checkpoint chain, compactions and a journal
// suffix.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"malgraph"
	"malgraph/internal/collect"
)

const (
	paperScale  = 1.0
	streamScale = 0.2
	// setupRepeats is how many set-ups paper-build times for setup_s.
	setupRepeats = 3
	// paperBuilds is paper-build's least number of builds, the first a
	// warm-up; it builds on until --seconds have passed. The first
	// paperRestarts builds are also saved to a content store and reloaded.
	paperBuilds   = 6
	paperRestarts = 3
	// streamBuilds one-shot builds of the streamed corpus and
	// streamRestarts restarts from the stream's end state close each
	// durable-stream run.
	streamBuilds   = 7
	streamRestarts = 5
)

type workload struct {
	name  string
	scale float64
	run   func(r *run, dur time.Duration) error
}

var workloads = []workload{
	// paper-build is the researcher's reproduction job: the collected
	// corpus at the paper's size ingested as one batch, then the full
	// Results. Loaded: embedding, LSH, K-Means/silhouette, the dependency
	// scan and every RQ analysis. Idle in build_s: WAL, registry recovery
	// (collection resolves artifacts during set-up), epoch publish beyond
	// one clone, and the scoped co-existing re-join — so a durability or
	// streaming change should leave build_s flat. Every build ingests into
	// the same set-up pipeline, its engine emptied first, and the first is
	// a warm-up. Saving the built corpus to a content store and reloading
	// it gives this workload its checkpoint and recovery figures at paper
	// scale.
	{"paper-build", paperScale, paperBuild},
	// durable-stream is the operator's steady state: the real observation
	// timeline (wanted-package arrivals and late reports included, not a
	// uniform synthetic mix, since campaigns mass-publish near-clones and
	// reports name packages before registries deliver them) pushed
	// closed-loop through a journaled, store-backed pipeline with serve's
	// checkpoint and compaction policy, and a poller reading each epoch's
	// Results and lookups after every batch, so writes sit beside reads.
	// Loaded: resolve and registry recovery, fdatasync, LSH-scoped
	// re-clustering, the scoped re-join, the epoch clone, incremental
	// Results, delta checkpoints and compaction; then, restarting from what
	// the stream left (checkpoint chain, compactions, journal suffix), store
	// open, manifest restore and journal replay, the reverse direction of
	// the stream's castore and wal use, so a checkpoint change that makes
	// restore slower shows here. Idle: whole-corpus clustering.
	{"durable-stream", streamScale, durableStream},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// timeline returns the pipeline's raw observation stream in replay order.
func timeline(p *malgraph.Pipeline) []collect.Observation {
	obs := collect.ObservationsFromSources(p.World.Sources)
	collect.SortObservations(obs)
	return obs
}

// repeats reports whether another repeat should start: at least min
// repeats, then until dur has elapsed; a traced run makes exactly one.
func (r *run) repeats(i, min int, start time.Time, dur time.Duration) bool {
	if r.tr != nil {
		return i < 1
	}
	return i < min || time.Since(start) < dur
}

func paperBuild(r *run, dur time.Duration) error {
	// Set-up: the researcher's process start (world, collection, crawl),
	// paid several times so that its median is steady; the last pipeline
	// serves every build, its engine emptied before each.
	var p *malgraph.Pipeline
	for i := 0; i < setupRepeats; i++ {
		p = nil // one pipeline in memory at a time
		var setup float64
		var err error
		if p, setup, err = r.newPipeline(paperScale); err != nil {
			return err
		}
		r.setup = append(r.setup, setup)
	}
	emptyEngine, err := engineEmptier(p)
	if err != nil {
		return err
	}
	corpus := r.corpusBatch(p)
	obs := timeline(p)
	ids := lookupIDs(obs)
	// Lookups run after every build, checkpoint and restore: the host's
	// speed varies from second to second, and lookups spread over the run
	// meet a share of slow seconds that varies less from run to run.
	lookups := func() {
		runtime.GC() // the last operation's garbage is its cost, not the reads'
		r.reads(p, ids, readWindow)
	}

	var first []byte
	start := time.Now()
	for i := 0; r.repeats(i, paperBuilds, start, dur); i++ {
		if i > 0 {
			if err := emptyEngine(); err != nil {
				return err
			}
		}
		runtime.GC() // start each build from the same heap state
		doc, err := r.build(p, corpus, len(obs), true)
		if err != nil {
			return err
		}
		if first == nil {
			first = doc
			probs := shapeProblems(doc, p.Stats(), r.seed, paperScale)
			r.gate("paper-build results shape", len(probs) == 0, "%v", probs)
		} else {
			d := resultsDiff(first, doc)
			r.gate(fmt.Sprintf("paper-build repeat %d results", i+1), d == "", "%s", d)
		}
		lookups()
		if i == 0 && r.tr == nil {
			// The first build grows the heap to its working size, paying
			// page faults the later builds do not: a warm-up.
			r.dropBuildSamples()
		}
		if r.tr != nil {
			sh := newShadow(p)
			if err := sh.ingestCorpus(r.tr, corpus); err != nil {
				return err
			}
			sh.results(r.tr, allBlocks())
			r.shadow = sh
		}
		if i >= paperRestarts {
			continue
		}

		// Save the built corpus to a fresh content store and reload it into
		// an emptied engine, as a restarted process would.
		want := p.Stats()
		dir := filepath.Join(r.workdir, fmt.Sprintf("paper-%d", i))
		d, err := r.openDurable(p, dir, false)
		if err != nil {
			return err
		}
		d.checkpoint()
		if err := d.close(); err != nil {
			return err
		}
		r.storeState(d)
		lookups()
		if err := emptyEngine(); err != nil {
			return err
		}
		if err := r.recover(p, dir); err != nil {
			return err
		}
		r.checkRecovered(p, want, first)
		lookups()
		os.RemoveAll(dir)
	}
	return nil
}

func durableStream(r *run, dur time.Duration) error {
	var (
		d     *durable
		start = time.Now()
	)
	// At least two streams: acks ride on fsync and checkpoint latencies
	// that drift over tens of seconds on a shared disk, and one stream's
	// p90 rests on some 30 checkpointing batches.
	for i := 0; r.repeats(i, 2, start, dur); i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return err
			}
			os.RemoveAll(d.dir)
			d = nil // one stream's pipeline in memory at a time
		}
		before := len(r.checkpoint)
		var setup float64
		var err error
		if d, setup, err = r.stream(streamScale, filepath.Join(r.workdir, fmt.Sprintf("stream-%d", i))); err != nil {
			return err
		}
		r.setup = append(r.setup, setup)
		n := len(r.checkpoint) - before
		r.gate("stream checkpoints", n >= 10, "stream %d took %d checkpoints, want >= 10", i+1, n)
	}
	if err := d.close(); err != nil {
		return err
	}
	r.storeState(d)
	drained := d.p.Stats()
	served, err := d.p.CurrentEpoch().ResultsJSON()
	if err != nil {
		return fmt.Errorf("results of the drained stream: %w", err)
	}
	corpus := r.corpusBatch(d.p)
	d.p = nil

	// One-shot builds of the corpus the stream delivered, into one set-up
	// pipeline with its engine emptied before each: build_s and the
	// reference the drained stream must equal.
	p, setup, err := r.newPipeline(streamScale)
	if err != nil {
		return err
	}
	r.setup = append(r.setup, setup)
	emptyEngine, err := engineEmptier(p)
	if err != nil {
		return err
	}
	var oneShot []byte
	for i := 0; i < streamBuilds && (r.tr == nil || i < 1); i++ {
		if err := emptyEngine(); err != nil {
			return err
		}
		runtime.GC()
		doc, err := r.build(p, corpus, 0, false)
		if err != nil {
			return err
		}
		if i == 0 {
			oneShot = doc
			sd := statsDiff(p.Stats(), drained)
			r.gate("drained stream equals one-shot build", sd == "", "%s", sd)
		} else {
			diff := resultsDiff(oneShot, doc)
			r.gate(fmt.Sprintf("one-shot build %d results", i+1), diff == "", "%s", diff)
		}
	}
	// The stream's Results were computed incrementally, epoch by epoch;
	// they must equal the one-shot build's.
	jd := resultsDiff(oneShot, served)
	r.gate("drained stream results equal one-shot build", jd == "", "%s", jd)

	// Restart from the stream's end state into the emptied engine of the
	// one-shot pipeline: recovery recomputes the Results in full, so they
	// must equal the one-shot build's.
	for i := 0; i < streamRestarts; i++ {
		if err := emptyEngine(); err != nil {
			return err
		}
		if err := r.recover(p, d.dir); err != nil {
			return err
		}
		r.checkRecovered(p, drained, oneShot)
	}
	return nil
}

// checkRecovered gates a recovered pipeline against the uninterrupted one.
func (r *run) checkRecovered(q *malgraph.Pipeline, want malgraph.PipelineStats, final []byte) {
	sd := statsDiff(want, q.Stats())
	r.gate("recovered stats", sd == "", "%s", sd)
	doc, err := q.CurrentEpoch().ResultsJSON()
	if err != nil {
		r.gate("recovered results", false, "%v", err)
		return
	}
	jd := resultsDiff(final, doc)
	r.gate("recovered results", jd == "", "%s", jd)
}

// storeState records the store's end-of-ingest shape for the traced run:
// segment count and space amplification (bytes on disk over the bytes of
// the blobs the engine still references).
func (r *run) storeState(d *durable) {
	if r.tr == nil {
		return
	}
	r.segments = d.store.SegmentCount()
	live := d.p.LiveRefs()
	hashes := make([]string, 0, len(live))
	for h := range live {
		hashes = append(hashes, h)
	}
	blobs, err := d.store.Fetch(hashes)
	if err != nil {
		return
	}
	var liveBytes int64
	for _, b := range blobs {
		liveBytes += int64(len(b))
	}
	var disk int64
	ents, _ := os.ReadDir(d.store.Dir())
	for _, e := range ents {
		if fi, err := e.Info(); err == nil {
			disk += fi.Size()
		}
	}
	if liveBytes > 0 {
		r.spaceAmp = float64(disk) / float64(liveBytes)
	}
}
