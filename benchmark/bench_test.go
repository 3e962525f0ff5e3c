package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"malgraph"
)

func TestHighestPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		want   float64
		wantOK bool
	}{
		{0, 0, false},
		{19, 0, false},  // median rank 10 leaves 9 beyond
		{20, 0.5, true}, // median rank 10 leaves 10 beyond
		{99, 0.5, true}, // p90 rank 90 leaves 9 beyond
		{100, 0.9, true},
		{150, 0.9, true}, // p99 rank 149 leaves 1 beyond
		{999, 0.9, true},
		{1000, 0.99, true},
		{10000, 0.999, true},
	} {
		q, ok := highestPercentile(tc.n)
		if q != tc.want || ok != tc.wantOK {
			t.Errorf("n=%d: got (%g, %v), want (%g, %v)", tc.n, q, ok, tc.want, tc.wantOK)
		}
		if ok && beyond(tc.n, q) < minBeyond {
			t.Errorf("n=%d: p%g leaves %d samples beyond", tc.n, q*100, beyond(tc.n, q))
		}
	}
}

func TestTailCapsAtP90AndFallsBackToMedian(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, q := tail(xs); q != 0.9 || v != 900 {
		t.Errorf("n=1000: tail = %g at q=%g, want 900 at p90", v, q)
	}
	if v, q := tail(xs[:50]); q != 0.5 || v != 25 {
		t.Errorf("n=50: tail = %g at q=%g, want the median 25", v, q)
	}
	if v, q := tail([]float64{3, 1, 2}); q != 0.5 || v != 2 {
		t.Errorf("n=3: tail = %g at q=%g, want the median 2", v, q)
	}
}

func span(id, parent int, name string, start, end int) Span {
	return Span{ID: id, Parent: parent, Op: 1, Kind: "ack", Name: name,
		Start: time.Duration(start) * time.Millisecond, End: time.Duration(end) * time.Millisecond}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []Span{
		span(0, -1, "ack", 0, 100),
		span(1, 0, "a", 10, 40),
		span(2, 0, "b", 30, 50),  // overlaps a: counted once
		span(3, 0, "c", 90, 120), // runs past the parent: clipped
		span(4, 1, "a.child", 15, 25),
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{0: 50, 1: 20, 2: 20, 3: 30, 4: 10} {
		if got := self[id]; got != want*time.Millisecond {
			t.Errorf("span %d self time = %v, want %v", id, got, want*time.Millisecond)
		}
	}
}

func TestUnattributedShareIsRootSelfOverDuration(t *testing.T) {
	spans := []Span{
		span(0, -1, "ack", 0, 200),
		span(1, 0, "malgraph.append_obs", 0, 150),
		span(2, 1, "wal.sync", 100, 150),
	}
	got := unattributedShares(spans, "ack")
	if len(got) != 1 || math.Abs(got[0]-0.25) > 1e-12 {
		t.Fatalf("unattributed shares = %v, want [0.25]", got)
	}
	if got := unattributedShares(spans, "fresh"); len(got) != 0 {
		t.Errorf("no fresh ops, got shares %v", got)
	}
}

func TestTracerNestsSpansAndNilTracerRecordsNothing(t *testing.T) {
	var off *Tracer
	off.End(off.Begin("x"))
	off.leaf("y", "", time.Now(), time.Now())
	if off.Spans() != nil {
		t.Fatal("nil tracer recorded spans")
	}
	tr := newTracer()
	op := tr.Root("ack")
	sp := tr.Begin("malgraph.append_obs")
	tr.leaf("wal.sync", "", time.Now(), time.Now())
	tr.leaf("castore.sync", "malgraph.checkpoint", time.Now(), time.Now()) // not inside a checkpoint
	tr.End(sp)
	tr.End(op)
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3: %+v", len(spans), spans)
	}
	if spans[1].Parent != spans[0].ID || spans[2].Parent != spans[1].ID || spans[2].Op != spans[0].Op || spans[2].Kind != "ack" {
		t.Errorf("bad nesting: %+v", spans)
	}
}

func TestPerOpSumsCountMissingSpansAsZero(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Op: 1, Kind: "ingest.replay", Name: "ingest.replay", End: 10 * time.Millisecond},
		{ID: 1, Parent: 0, Op: 1, Kind: "ingest.replay", Name: "core.ingest", End: 6 * time.Millisecond},
		{ID: 2, Parent: 0, Op: 1, Kind: "ingest.replay", Name: "textsim.embed", End: 2 * time.Millisecond},
		{ID: 3, Parent: -1, Op: 2, Kind: "ingest.replay", Name: "ingest.replay", End: 10 * time.Millisecond},
		{ID: 4, Parent: 3, Op: 2, Kind: "ingest.replay", Name: "core.ingest", End: 1 * time.Millisecond},
	}
	if got := perOp(spans, "ingest.replay", "textsim.embed"); len(got) != 2 || got[0] != 2 || got[1] != 0 {
		t.Errorf("perOp = %v, want [2 0]", got)
	}
	if got := ingestRemainders(spans); len(got) != 2 || got[0] != 4 || got[1] != 1 {
		t.Errorf("ingest remainders = %v, want [4 1]", got)
	}
}

func shape() (malgraph.PipelineStats, []byte) {
	st := malgraph.PipelineStats{
		Entries: 10, Available: 8, MissingRate: 0.2, Reports: 3, Nodes: 20, Edges: 10,
		EdgesByType: map[string]int{"duplicated": 1, "similar": 2, "dependency": 3, "coexisting": 4},
	}
	res := malgraph.Results{
		Seed: 7, Scale: 0.2, TotalPackages: 10, Available: 8, Missing: 2, CrawledReports: 3,
		GraphNodes: 20, GraphEdges: 10, DuplicatedEdges: 1, SimilarEdges: 2, DependencyEdges: 3, CoexistingEdges: 4,
		SourceSizes: []malgraph.SourceSizeRow{{}}, MissingRates: []malgraph.MissingRateRow{{}},
		OccurrenceCDF: []malgraph.OccurrenceRow{{}}, Timeline: []malgraph.TimelineRow{{}},
		SimilarSubgraphs: []malgraph.SubgraphRow{{}}, DependencySubgraphs: []malgraph.SubgraphRow{{}},
		CoexistSubgraphs: []malgraph.SubgraphRow{{}}, IoCs: malgraph.IoCRow{UniqueURLs: 1},
		Validation: malgraph.ValidationRow{Experiments: 5},
	}
	doc, _ := json.Marshal(res)
	return st, doc
}

func TestGatesTripOnAlteredOutput(t *testing.T) {
	st, doc := shape()
	if p := shapeProblems(doc, st, 7, 0.2); len(p) != 0 {
		t.Fatalf("reference shape rejected: %v", p)
	}
	if d := statsDiff(st, st); d != "" {
		t.Fatalf("identical stats differ: %s", d)
	}
	if d := resultsDiff(doc, doc); d != "" {
		t.Fatalf("identical documents differ: %s", d)
	}

	// One altered edge count: the stats gate and the shape gate must trip.
	altered := st
	altered.EdgesByType = map[string]int{"duplicated": 1, "similar": 2, "dependency": 3, "coexisting": 5}
	if d := statsDiff(st, altered); !strings.Contains(d, "coexisting") {
		t.Errorf("stats gate missed an altered edge count: %q", d)
	}
	if p := shapeProblems(doc, altered, 7, 0.2); len(p) == 0 {
		t.Error("shape gate missed results that disagree with the graph")
	}

	// One altered byte of Results JSON: the equality gate must trip.
	bad := append([]byte(nil), doc...)
	i := strings.Index(string(bad), `"TotalPackages":10`) + len(`"TotalPackages":1`)
	bad[i] = '1'
	if d := resultsDiff(doc, bad); d == "" {
		t.Error("results gate missed an altered document")
	}
	if p := shapeProblems(bad, st, 7, 0.2); len(p) == 0 {
		t.Error("shape gate missed an altered package count")
	}

	// The crawl's page count is not part of the comparison.
	var res malgraph.Results
	_ = json.Unmarshal(doc, &res)
	res.CrawledPages = 99
	recrawled, _ := json.Marshal(res)
	if d := resultsDiff(doc, recrawled); d != "" {
		t.Errorf("results gate compared the crawl page count: %s", d)
	}

	// An empty RQ table and the wrong seed each trip the shape gate.
	_ = json.Unmarshal(doc, &res)
	res.CoexistSubgraphs = nil
	empty, _ := json.Marshal(res)
	if p := shapeProblems(empty, st, 7, 0.2); len(p) == 0 {
		t.Error("shape gate missed an empty RQ4 table")
	}
	if p := shapeProblems(doc, st, 8, 0.2); len(p) == 0 {
		t.Error("shape gate missed results of another seed")
	}
}

// TestBenchmarkJSONListsTheProgramsMetrics keeps BENCHMARK.json and the
// program in step: the same metric names and units, in the same order.
func TestBenchmarkJSONListsTheProgramsMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	sort.Strings(names)
	sort.Strings(have)
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Errorf("workloads %v, program has %v", names, have)
	}
	for _, c := range []struct {
		kind string
		spec []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.defs) {
			t.Errorf("%s: %d metrics listed, program reports %d", c.kind, len(c.spec), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.spec[i].Name != d.name || c.spec[i].Unit != d.unit {
				t.Errorf("%s[%d]: listed %s (%s), program reports %s (%s)", c.kind, i, c.spec[i].Name, c.spec[i].Unit, d.name, d.unit)
			}
		}
	}
}

func TestChildSumsCoverEveryParent(t *testing.T) {
	spans := []Span{
		span(0, -1, "ack", 0, 100),
		span(1, 0, "malgraph.append_obs", 0, 50),
		span(2, 1, "wal.write", 10, 12),
		span(3, 1, "wal.sync", 12, 20),
		span(4, 1, "registry.recover", 20, 30),
		span(5, 0, "malgraph.append_reports", 50, 60),
	}
	got := childSums(spans, "wal.", "malgraph.append_obs", "malgraph.append_reports")
	if len(got) != 2 || got[0] != 10 || got[1] != 0 {
		t.Errorf("child sums = %v, want [10 0]", got)
	}
}

// TestInputReportsAreTheSameOnEverySetUp: the workloads' report corpus is
// a function of the seed, whatever order the set-up's own crawl fetched in.
func TestInputReportsAreTheSameOnEverySetUp(t *testing.T) {
	var docs [][]byte
	for i := 0; i < 2; i++ {
		r := &run{seed: 7, led: newLedger()}
		p, _, err := r.newPipeline(0.02)
		if err != nil {
			t.Fatal(err)
		}
		reps := r.inputReports(p)
		if len(reps) == 0 || r.crawlPages == 0 {
			t.Fatalf("set-up %d: %d reports from %d pages", i+1, len(reps), r.crawlPages)
		}
		doc, err := json.Marshal(reps)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc)
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Error("two set-ups of one world gave different input reports")
	}
}
