package main

// Correctness gates. A mismatch fails the run (correct=false).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"malgraph"
)

// statsDiff describes how two pipeline shapes differ, ignoring the feed
// cursor (a streamed pipeline never drains its simulated feed); "" when
// they agree.
func statsDiff(want, got malgraph.PipelineStats) string {
	var d []string
	f := func(name string, w, g any) {
		if w != g {
			d = append(d, fmt.Sprintf("%s %v != %v", name, g, w))
		}
	}
	f("entries", want.Entries, got.Entries)
	f("available", want.Available, got.Available)
	f("missingRate", want.MissingRate, got.MissingRate)
	f("reports", want.Reports, got.Reports)
	f("nodes", want.Nodes, got.Nodes)
	f("edges", want.Edges, got.Edges)
	for _, t := range []string{"duplicated", "similar", "dependency", "coexisting"} {
		f(t+" edges", want.EdgesByType[t], got.EdgesByType[t])
	}
	for t := range got.EdgesByType {
		if _, ok := want.EdgesByType[t]; !ok {
			d = append(d, "unexpected edge type "+t)
		}
	}
	return strings.Join(d, "; ")
}

// resultsDiff reports whether two Results JSON documents differ, and where
// the first difference sits; "" when they agree. CrawledPages is left out:
// it is the page count of the pipeline's own crawl, which every set-up
// runs afresh and which depends on fetch scheduling, while the builds
// compared here all ingest one corpus (see run.inputReports).
func resultsDiff(want, got []byte) string {
	want, got = withoutCrawlCount(want), withoutCrawlCount(got)
	if bytes.Equal(want, got) {
		return ""
	}
	i := 0
	for i < len(want) && i < len(got) && want[i] == got[i] {
		i++
	}
	lo := max(0, i-40)
	return fmt.Sprintf("Results JSON differ at byte %d (%d vs %d bytes): ...%s",
		i, len(got), len(want), got[lo:min(len(got), i+40)])
}

func withoutCrawlCount(doc []byte) []byte {
	var res malgraph.Results
	if err := json.Unmarshal(doc, &res); err != nil {
		return doc
	}
	res.CrawledPages = 0
	out, err := json.Marshal(res)
	if err != nil {
		return doc
	}
	return out
}

// paperShape pins the default seed's corpus at paper scale: the package
// and report counts of the paper's corpus.
var paperShape = struct {
	seed             uint64
	scale            float64
	packages, report int
}{20240404, 1.0, 24371, 1167}

// shapeProblems checks a Results JSON document against the pipeline shape
// it was computed from: every header count agrees with the graph, every
// edge family and RQ section is populated, and at the default seed and
// paper scale the corpus has the paper's size.
func shapeProblems(doc []byte, st malgraph.PipelineStats, seed uint64, scale float64) []string {
	var res malgraph.Results
	if err := json.Unmarshal(doc, &res); err != nil {
		return []string{"Results JSON does not decode: " + err.Error()}
	}
	var out []string
	want := func(ok bool, format string, args ...any) {
		if !ok {
			out = append(out, fmt.Sprintf(format, args...))
		}
	}
	want(res.Seed == seed && res.Scale == scale, "results stamped seed %d scale %g", res.Seed, res.Scale)
	want(res.TotalPackages == st.Entries, "TotalPackages %d != %d entries", res.TotalPackages, st.Entries)
	want(res.Available == st.Available, "Available %d != %d", res.Available, st.Available)
	want(res.Available+res.Missing == res.TotalPackages, "available+missing %d != total %d", res.Available+res.Missing, res.TotalPackages)
	want(res.CrawledReports == st.Reports, "CrawledReports %d != %d reports", res.CrawledReports, st.Reports)
	want(res.GraphNodes == st.Nodes && res.GraphEdges == st.Edges, "graph %d/%d != %d/%d nodes/edges", res.GraphNodes, res.GraphEdges, st.Nodes, st.Edges)
	fam := []struct {
		name string
		n    int
	}{{"duplicated", res.DuplicatedEdges}, {"similar", res.SimilarEdges}, {"dependency", res.DependencyEdges}, {"coexisting", res.CoexistingEdges}}
	sum := 0
	for _, f := range fam {
		want(f.n > 0 && f.n == st.EdgesByType[f.name], "%s edges %d (graph %d)", f.name, f.n, st.EdgesByType[f.name])
		sum += f.n
	}
	want(sum == res.GraphEdges, "edge families sum %d != %d", sum, res.GraphEdges)
	want(len(res.SourceSizes) > 0 && len(res.MissingRates) > 0 && len(res.OccurrenceCDF) > 0 && len(res.Timeline) > 0, "RQ1 tables empty")
	want(len(res.SimilarSubgraphs) > 0, "RQ2 table empty")
	want(len(res.DependencySubgraphs) > 0, "RQ3 table empty")
	want(len(res.CoexistSubgraphs) > 0 && res.IoCs.UniqueURLs > 0, "RQ4 tables empty")
	want(res.Validation.Experiments > 0, "validation did not run")
	if seed == paperShape.seed && scale == paperShape.scale {
		want(res.TotalPackages == paperShape.packages && res.CrawledReports == paperShape.report,
			"paper corpus is %d packages and %d reports, got %d and %d",
			paperShape.packages, paperShape.report, res.TotalPackages, res.CrawledReports)
	}
	return out
}
