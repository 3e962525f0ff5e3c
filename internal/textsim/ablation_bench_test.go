package textsim

// Ablation benchmarks for the similarity pipeline's design choices:
// embedding dimensionality (speed vs separation) and the pooled scratch of
// per-partition clustering.

import (
	"fmt"
	"strings"
	"testing"
)

// ablationCorpus builds nFamilies code families with variants plus
// singletons — the group structure the clustering stage must recover.
func ablationCorpus(nFamilies, perFamily, singletons int, cfg EmbedConfig) []Item {
	e := NewEmbedder(cfg)
	var items []Item
	for f := 0; f < nFamilies; f++ {
		base := strings.Repeat(fmt.Sprintf(
			"def family%dcollect(batch%d, sink%d):\n    payload%d = encode%d(batch%d)\n    return upload%d(payload%d, sink%d)\n",
			f, f, f, f, f, f, f, f, f), 25)
		for p := 0; p < perFamily; p++ {
			src := base
			if p > 0 {
				src = strings.Replace(src, "upload", fmt.Sprintf("upload%dvar", p), 2)
			}
			tokens := Tokenize(src)
			items = append(items, Item{
				ID:     fmt.Sprintf("f%d-p%d", f, p),
				Vector: e.EmbedTokens(tokens),
				Hash:   SimHash(tokens),
			})
		}
	}
	for s := 0; s < singletons; s++ {
		src := strings.Repeat(fmt.Sprintf(
			"def lone%dhandler(ctx%d):\n    return transform%d(ctx%d.rows)\n", s, s, s, s), 20+s%7)
		tokens := Tokenize(src)
		items = append(items, Item{
			ID:     fmt.Sprintf("lone-%d", s),
			Vector: e.EmbedTokens(tokens),
			Hash:   SimHash(tokens),
		})
	}
	return items
}

// clusterAll clusters every partition through sc (nil: a fresh scratch per
// call) and returns the surviving clusters.
func clusterAll(parts [][]Item, sc *Scratch) []Cluster {
	var out []Cluster
	for _, part := range parts {
		out = append(out, ClusterItemsScratch(part, DefaultClusterConfig(), nil, sc)...)
	}
	return out
}

// BenchmarkAblation_EmbeddingDim sweeps the per-snippet hash dimensionality:
// small dims collide families together, large dims cost linear time/memory.
func BenchmarkAblation_EmbeddingDim(b *testing.B) {
	for _, dim := range []int{16, 32, 64, 128} {
		b.Run(fmt.Sprintf("dim=%d", dim), func(b *testing.B) {
			cfg := EmbedConfig{SnippetTokens: 512, SnippetDim: dim, MaxSnippets: 4}
			parts := partitionCorpus(ablationCorpus(30, 8, 200, cfg), DefaultClusterConfig())
			b.ResetTimer()
			var clusters []Cluster
			for i := 0; i < b.N; i++ {
				clusters = clusterAll(parts, nil)
			}
			pure := 0
			for _, c := range clusters {
				fam := strings.SplitN(c.Members[0], "-", 2)[0]
				ok := true
				for _, m := range c.Members {
					if strings.SplitN(m, "-", 2)[0] != fam {
						ok = false
						break
					}
				}
				if ok {
					pure++
				}
			}
			b.ReportMetric(float64(len(clusters)), "clusters")
			b.ReportMetric(float64(pure), "pure_clusters")
		})
	}
}

// BenchmarkClusterPartitions_ScratchReuse measures the steady-state
// allocation profile of clustering partition after partition through one
// pooled Scratch — the incremental engine's re-clustering pattern — against
// the scratch-free baseline BenchmarkClusterPartitions_NoScratch.
func BenchmarkClusterPartitions_NoScratch(b *testing.B) {
	parts := partitionCorpus(ablationCorpus(30, 8, 200, DefaultEmbedConfig()), DefaultClusterConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clusterAll(parts, nil)
	}
}

func BenchmarkClusterPartitions_ScratchReuse(b *testing.B) {
	parts := partitionCorpus(ablationCorpus(30, 8, 200, DefaultEmbedConfig()), DefaultClusterConfig())
	sc := NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clusterAll(parts, sc)
	}
}
