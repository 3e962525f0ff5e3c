package main

import (
	"syscall"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct {
	name, unit string
	value      func(r *run, spans []Span) float64
}

// endToEnd lists what a user of the system sees, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", func(r *run, _ []Span) float64 { return median(r.setup) }},
	{"rss_peak_mb", "MB", func(*run, []Span) float64 { return peakRSSMB() }},
	{"build_s", "s", func(r *run, _ []Span) float64 { return median(r.builds) }},
	{"ack_p50_ms", "ms", func(r *run, _ []Span) float64 { return median(r.ack) }},
	{"ack_p90_ms", "ms", func(r *run, _ []Span) float64 { v, _ := tail(r.ack); return v }},
	{"obs_per_s", "1/s", func(r *run, _ []Span) float64 { return perSecond(r.obsAcked, r.publisherMS) }},
	{"fresh_p50_ms", "ms", func(r *run, _ []Span) float64 { return median(r.fresh) }},
	{"fresh_p90_ms", "ms", func(r *run, _ []Span) float64 { v, _ := tail(r.fresh); return v }},
	{"read_p50_us", "us", func(r *run, _ []Span) float64 { return median(r.readUS) }},
	{"checkpoint_p50_ms", "ms", func(r *run, _ []Span) float64 { return median(r.checkpoint) }},
	{"recovery_s", "s", func(r *run, _ []Span) float64 { return median(r.recovery) }},
}

// perLayer lists the traced run's per-module figures. A module a workload
// leaves idle reports 0. Pipeline and store times are medians per call;
// replayed module times are medians per replayed batch (ingest) or per
// replayed Results (analysis blocks), counting a batch that skipped the
// module as 0; counts are totals over the traced pass.
var perLayer = []metricDef{
	{"malgraph.append_obs_ms", "ms", spanMedian("malgraph.append_obs")},
	{"malgraph.append_reports_ms", "ms", spanMedian("malgraph.append_reports")},
	{"malgraph.checkpoint_ms", "ms", spanMedian("malgraph.checkpoint")},
	{"malgraph.results_ms", "ms", spanMedian("malgraph.results")},
	{"malgraph.results_json_ms", "ms", spanMedian("malgraph.results_json")},
	// Results blocks recomputed per fresh read (of six).
	{"malgraph.blocks_recomputed", "count", func(r *run, _ []Span) float64 { return median(r.blocks) }},
	{"malgraph.read_us", "us", func(_ *run, s []Span) float64 { return 1000 * median(durations(s, "malgraph.read")) }},
	{"malgraph.restore_ms", "ms", spanMedian("malgraph.restore")},
	{"malgraph.replay_ms", "ms", spanMedian("malgraph.replay")},
	{"collect.resolve_ms", "ms", opMedian("ingest.replay", "collect.resolve")},
	{"registry.recover_calls", "count", func(r *run, _ []Span) float64 { return float64(r.view.calls.Load()) }},
	// Recovery time per resolving pipeline call (observations ack or replay).
	{"registry.recover_ms", "ms", func(_ *run, s []Span) float64 {
		return median(childSums(s, "registry.", "malgraph.append_obs", "malgraph.replay"))
	}},
	{"registry.recover_hit_ratio", "ratio", func(r *run, _ []Span) float64 {
		return ratio(float64(r.view.hits.Load()), float64(r.view.calls.Load()))
	}},
	{"core.ingest_ms", "ms", opMedian("ingest.replay", "core.ingest")},
	{"core.view_ms", "ms", opMedian("ingest.replay", "core.view")},
	// Artifacts re-clustered over the items of the ecosystems they dirtied.
	{"core.recluster_scope", "ratio", func(r *run, _ []Span) float64 {
		var a, d float64
		for _, st := range r.ingests {
			a += float64(st.ArtifactsReclustered)
			d += float64(st.DirtyEcoItems)
		}
		return ratio(a, d)
	}},
	{"core.partitions_reclustered", "count", ingestSum(func(i int, r *run) int { return r.ingests[i].PartitionsReclustered })},
	{"core.reports_rejoined", "count", ingestSum(func(i int, r *run) int { return r.ingests[i].ReportsRejoined })},
	{"core.coexisting_edges_replaced", "count", ingestSum(func(i int, r *run) int { return r.ingests[i].CoexistingEdgesReplaced })},
	{"core.coexisting_rebuilt", "count", ingestSum(func(i int, r *run) int {
		if r.ingests[i].CoexistingRebuilt {
			return 1
		}
		return 0
	})},
	{"core.manifest_bytes", "bytes", func(r *run, _ []Span) float64 { return median(r.manifestBytes) }},
	{"core.chain_refs", "count", func(r *run, _ []Span) float64 { return median(r.chainRefs) }},
	{"textsim.embed_ms", "ms", opMedian("ingest.replay", "textsim.embed")},
	{"textsim.lsh_ms", "ms", opMedian("ingest.replay", "textsim.lsh")},
	{"textsim.cluster_ms", "ms", opMedian("ingest.replay", "textsim.cluster")},
	{"textsim.max_partition", "count", func(r *run, _ []Span) float64 {
		if r.shadow == nil {
			return 0
		}
		return float64(r.shadow.maxPartition())
	}},
	{"depscan.scan_ms", "ms", opMedian("ingest.replay", "depscan.scan")},
	// Engine.Ingest time the module replays do not account for.
	{"core.unattributed_ms", "ms", func(_ *run, s []Span) float64 { return median(ingestRemainders(s)) }},
	{"analysis.rq1_ms", "ms", opMedian("results.replay", "analysis.rq1")},
	{"analysis.rq2_ms", "ms", opMedian("results.replay", "analysis.rq2")},
	{"analysis.rq3_ms", "ms", opMedian("results.replay", "analysis.rq3")},
	{"analysis.rq4_ms", "ms", opMedian("results.replay", "analysis.rq4")},
	{"behavior.table11_ms", "ms", opMedian("results.replay", "behavior.table11")},
	{"detect.validation_ms", "ms", opMedian("results.replay", "detect.validation")},
	// Journal write+sync time per journaling pipeline call.
	{"wal.append_ms", "ms", func(_ *run, s []Span) float64 {
		return median(childSums(s, "wal.", "malgraph.append_obs", "malgraph.append_reports"))
	}},
	{"wal.fsyncs", "count", func(r *run, _ []Span) float64 { return float64(r.walFS.syncs.Load()) }},
	{"wal.bytes_per_obs", "bytes", func(r *run, _ []Span) float64 {
		return ratio(float64(r.walFS.bytes.Load()), float64(r.obsAcked))
	}},
	{"wal.replay_records", "count", func(r *run, _ []Span) float64 { return median(r.replayRecords) }},
	{"castore.bytes_written", "bytes", func(r *run, _ []Span) float64 { return float64(r.storeFS.bytes.Load()) }},
	{"castore.fsyncs", "count", func(r *run, _ []Span) float64 { return float64(r.storeFS.syncs.Load()) }},
	{"castore.compact_ms", "ms", func(r *run, _ []Span) float64 { return median(r.compactMS) }},
	{"castore.compact_bytes", "bytes", func(r *run, _ []Span) float64 { return float64(r.storeFS.compactB.Load()) }},
	{"castore.open_ms", "ms", spanMedian("castore.open")},
	{"castore.segments", "count", func(r *run, _ []Span) float64 { return float64(r.segments) }},
	{"castore.space_amp", "ratio", func(r *run, _ []Span) float64 { return r.spaceAmp }},
	// Share of each operation kind's time that no module span covers.
	{"ack.unattributed", "ratio", shareMedian("ack")},
	{"fresh.unattributed", "ratio", shareMedian("fresh")},
	{"read.unattributed", "ratio", shareMedian("read")},
	{"build.unattributed", "ratio", shareMedian("build")},
	{"recovery.unattributed", "ratio", shareMedian("recovery")},
}

func spanMedian(name string) func(*run, []Span) float64 {
	return func(_ *run, s []Span) float64 { return median(durations(s, name)) }
}

func opMedian(kind, name string) func(*run, []Span) float64 {
	return func(_ *run, s []Span) float64 { return median(perOp(s, kind, name)) }
}

func shareMedian(kind string) func(*run, []Span) float64 {
	return func(_ *run, s []Span) float64 { return median(unattributedShares(s, kind)) }
}

func ingestSum(f func(i int, r *run) int) func(*run, []Span) float64 {
	return func(r *run, _ []Span) float64 {
		n := 0
		for i := range r.ingests {
			n += f(i, r)
		}
		return float64(n)
	}
}

// ingestRemainders returns, per ingest replay, the Engine.Ingest time left
// after subtracting the replayed module spans (dependency scan, embed,
// LSH, re-cluster) of the same replay.
func ingestRemainders(spans []Span) []float64 {
	out := perOp(spans, "ingest.replay", "core.ingest")
	for _, name := range []string{"depscan.scan", "textsim.embed", "textsim.lsh", "textsim.cluster"} {
		for i, v := range perOp(spans, "ingest.replay", name) {
			out[i] -= v
		}
	}
	for i := range out {
		out[i] = max(0, out[i])
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func perSecond(n int, totalMS float64) float64 {
	if totalMS <= 0 {
		return 0
	}
	return float64(n) / (totalMS / 1000)
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
