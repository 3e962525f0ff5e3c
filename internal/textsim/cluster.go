package textsim

import (
	"sort"

	"malgraph/internal/xrand"
)

// silhouetteChunk is the group size the silhouette sum is accumulated in:
// per-group partial sums, added in group order. The grouping is part of the
// value — Silhouette bits persisted in stores and recomputed after a restart
// must agree — so it stays fixed.
const silhouetteChunk = 256

// ClusterConfig parameterises the similarity clustering of §III-B step 4.
type ClusterConfig struct {
	// Threshold is the minimum cosine similarity for two packages to join
	// the same group (paper: 0.7).
	Threshold float64
	// MinSilhouette drops clusters whose silhouette score falls below this
	// value (paper: 0.3).
	MinSilhouette float64
	// MinSize drops clusters smaller than this (paper: subgraphs need ≥ 2).
	MinSize int
	// KMeansIters bounds the refinement iterations.
	KMeansIters int
	// LSHBands is the number of SimHash bands LSHIndex buckets fingerprints
	// in, and therefore where its partition boundaries fall: each partition
	// is clustered on its own.
	LSHBands int
	// MaxBucketProbe caps how many co-bucketed items LSHIndex.Add verifies
	// per band bucket (0 = DefaultMaxBucketProbe; negative = unlimited).
	// Without a cap, a degenerate band bucket — thousands of near-identical
	// fingerprints — makes every append pay O(bucket) dot products, the last
	// corpus-linear term in the similar stage. Capped probing verifies
	// against the bucket's ID-smallest members at the time of the add, so
	// while every bucket stays at or under the cap, partitions do not depend
	// on insertion order. Past the cap they can: an item verified only
	// against the prefix may miss a union with a member outside it, and a
	// later ID-smaller arrival shifts the prefix — which members an item was
	// probed against then depends on the order items arrived in.
	MaxBucketProbe int
}

// DefaultMaxBucketProbe is the default per-bucket verification cap. It is
// far above the typical bucket load and exists to bound the degenerate case,
// not to tune recall.
const DefaultMaxBucketProbe = 512

// DefaultClusterConfig returns the paper's parameters.
func DefaultClusterConfig() ClusterConfig {
	return ClusterConfig{Threshold: 0.7, MinSilhouette: 0.3, MinSize: 2, KMeansIters: 8, LSHBands: 8}
}

// Item is one package entering the clustering stage.
type Item struct {
	ID     string
	Vector []float64
	Hash   uint64 // SimHash fingerprint
}

// Cluster is one similar-code group.
type Cluster struct {
	Members    []string // item IDs, sorted
	Centroid   []float64
	Silhouette float64
	IntraSim   float64 // mean pairwise-to-centroid cosine (paper reports 99.9%)
}

// Scratch pools the refiner's per-call buffers (the working centroid and
// the membership mask), so the incremental engine's steady state —
// re-clustering one partition after another — doesn't re-allocate them on
// every call. A Scratch is not safe for concurrent use; pool one per worker.
type Scratch struct {
	cent []float64
	in   []bool
}

// NewScratch returns an empty scratch; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

// ClusterItemsScratch clusters one verified LSHIndex partition (§III-B
// step 4). A partition is a connected component of "shares a SimHash band
// and cosine ≥ Threshold", so it is already one candidate group; what is
// left is K-Means with a single centroid:
//
//  1. Seed the centroid at the L2-normalised mean of every item.
//  2. Refine for up to KMeansIters rounds: keep the items whose cosine with
//     the centroid clears Threshold and re-centre on them, stopping early
//     once the kept set no longer changes.
//  3. Drop the cluster when fewer than MinSize items are kept, or when its
//     simplified silhouette is below MinSilhouette.
//
// With no other centroid to contrast against, the simplified silhouette of
// an item at cosine distance a from the centroid is (1−a)/max(a, 1), and the
// cluster's score is the mean over its members.
//
// The result is nil or one Cluster, freshly allocated and safe to retain.
// It is a pure function of the items and their order; rng is unused and sc
// may be nil. Items must hold the EmbedTokens L2 invariant, so Dot is their
// cosine; zero-tail-trimmed vectors of different lengths are fine.
func ClusterItemsScratch(items []Item, cfg ClusterConfig, rng *xrand.RNG, sc *Scratch) []Cluster {
	if len(items) == 0 {
		return nil
	}
	if cfg.Threshold == 0 {
		cfg = DefaultClusterConfig()
	}
	if sc == nil {
		sc = NewScratch()
	}
	dim := 0
	for _, it := range items {
		dim = max(dim, len(it.Vector))
	}
	if cap(sc.cent) < dim {
		sc.cent = make([]float64, dim)
	}
	cent := sc.cent[:dim]
	if cap(sc.in) < len(items) {
		sc.in = make([]bool, len(items))
	}
	in := sc.in[:len(items)]
	for i := range in {
		in[i] = true // the seed: every item
	}

	sumInto(cent, items, in)
	n := 0
	for iter, rounds := 0, max(cfg.KMeansIters, 1); iter < rounds; iter++ {
		changed := false
		n = 0
		for i, it := range items {
			keep := Dot(it.Vector, cent) >= cfg.Threshold
			changed = changed || keep != in[i]
			in[i] = keep
			if keep {
				n++
			}
		}
		if n == 0 {
			return nil
		}
		if (iter > 0 && !changed) || iter == rounds-1 {
			break
		}
		sumInto(cent, items, in)
	}
	if n < cfg.MinSize {
		return nil
	}

	// The retained centroid is sized for the longest member.
	dim = 0
	for i, it := range items {
		if in[i] {
			dim = max(dim, len(it.Vector))
		}
	}
	c := make([]float64, dim)
	sumInto(c, items, in)
	var sil float64
	for lo := 0; lo < len(items); lo += silhouetteChunk {
		var part float64
		for i := lo; i < min(lo+silhouetteChunk, len(items)); i++ {
			if !in[i] {
				continue
			}
			a := 1 - Dot(items[i].Vector, c)
			part += (1 - a) / max(a, 1)
		}
		sil += part
	}
	sil /= float64(n)
	if sil < cfg.MinSilhouette {
		return nil
	}

	ids := make([]string, 0, n)
	var intra float64
	for i, it := range items {
		if in[i] {
			ids = append(ids, it.ID)
			intra += Dot(it.Vector, c)
		}
	}
	sort.Strings(ids)
	return []Cluster{{
		Members:    ids,
		Centroid:   c,
		Silhouette: sil,
		IntraSim:   intra / float64(n),
	}}
}

// sumInto overwrites dst with the L2-normalised sum of the vectors of the
// items marked in, added in item order. dst must be at least as long as the
// longest marked vector.
func sumInto(dst []float64, items []Item, in []bool) {
	clear(dst)
	for i, it := range items {
		if in[i] {
			for d, x := range it.Vector {
				dst[d] += x
			}
		}
	}
	normalize(dst)
}
