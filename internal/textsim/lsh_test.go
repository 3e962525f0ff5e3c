package textsim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"malgraph/internal/xrand"
)

// lshFixture returns items with known band structure: a1/a2/b1/bridge share
// one code direction (verification passes), c1 is orthogonal; a* and b1
// collide in no band until bridge links both.
func lshFixture() []Item {
	same := []float64{1, 0}
	return []Item{
		{ID: "a1", Hash: 0x1111111111111111, Vector: same},
		{ID: "a2", Hash: 0x1111111111111111, Vector: same}, // same partition as a1
		{ID: "b1", Hash: 0x2222222222222222, Vector: same}, // no shared band with a*
		{ID: "c1", Hash: 0xF0F0F0F0F0F0F0F0, Vector: []float64{0, 1}},
		{ID: "bridge", Hash: 0x2222222211111111, Vector: same}, // low bands hit a*, high bands hit b1
	}
}

func addAll(x *LSHIndex, items []Item) {
	for _, it := range items {
		x.Add(it.ID, it.Hash, it.Vector)
	}
}

func TestLSHIndexPartitions(t *testing.T) {
	x := NewLSHIndex(ClusterConfig{LSHBands: 8, Threshold: 0.7})
	addAll(x, lshFixture()[:4]) // no bridge yet
	if got := x.Partitions(); !reflect.DeepEqual(got, []string{"a1", "b1", "c1"}) {
		t.Fatalf("partitions = %v", got)
	}
	if got := x.Members("a1"); !reflect.DeepEqual(got, []string{"a1", "a2"}) {
		t.Fatalf("members(a1) = %v", got)
	}
	if got := x.Members("a2"); got != nil {
		t.Fatalf("a2 is not canonical, members = %v", got)
	}
	if root, ok := x.Root("a2"); !ok || root != "a1" {
		t.Fatalf("root(a2) = %q, %v", root, ok)
	}
	if _, ok := x.Root("nope"); ok {
		t.Fatal("unknown id must not resolve")
	}
}

func TestLSHIndexMergeRetiresKeys(t *testing.T) {
	fixture := lshFixture()
	x := NewLSHIndex(ClusterConfig{LSHBands: 8, Threshold: 0.7})
	addAll(x, fixture[:4])
	if retired := x.DrainRetired(); len(retired) == 0 {
		// a2 was briefly canonical of itself before merging into a1.
		t.Fatalf("expected a2 retirement, got %v", retired)
	}
	x.Add(fixture[4].ID, fixture[4].Hash, fixture[4].Vector)
	// bridge connects {a1,a2} with {b1}: one partition keyed a1 survives.
	if got := x.Partitions(); !reflect.DeepEqual(got, []string{"a1", "c1"}) {
		t.Fatalf("partitions after bridge = %v", got)
	}
	if got := x.Members("a1"); !reflect.DeepEqual(got, []string{"a1", "a2", "b1", "bridge"}) {
		t.Fatalf("merged members = %v", got)
	}
	retired := x.DrainRetired()
	found := false
	for _, k := range retired {
		if k == "b1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("b1 must retire on merge, got %v", retired)
	}
	if again := x.DrainRetired(); again != nil {
		t.Fatalf("drain must clear: %v", again)
	}
	// Re-adding a known ID is a no-op.
	x.Add("bridge", 0xFFFFFFFFFFFFFFFF, []float64{1, 0})
	if got := x.Partitions(); !reflect.DeepEqual(got, []string{"a1", "c1"}) {
		t.Fatalf("re-add changed partitions: %v", got)
	}
}

// TestLSHIndexVerification pins what keeps partitions family-sized at scale:
// a band collision alone (here: identical fingerprints) must NOT merge two
// items whose vectors fail the cosine threshold.
func TestLSHIndexVerification(t *testing.T) {
	x := NewLSHIndex(ClusterConfig{LSHBands: 8, Threshold: 0.7})
	x.Add("p", 0x1234123412341234, []float64{1, 0})
	x.Add("q", 0x1234123412341234, []float64{0, 1}) // every band collides, cosine 0
	if got := x.Partitions(); !reflect.DeepEqual(got, []string{"p", "q"}) {
		t.Fatalf("unverified collision merged partitions: %v", got)
	}
	x.Add("r", 0x1234123412341234, []float64{1, 0}) // verifies against p only
	if got := x.Members("p"); !reflect.DeepEqual(got, []string{"p", "r"}) {
		t.Fatalf("verified pair not merged: %v", got)
	}
}

// TestLSHIndexOrderIndependence is the content-derivation contract: any
// insertion order yields identical partitions, canonical keys and members.
func TestLSHIndexOrderIndependence(t *testing.T) {
	items := lshFixture()
	var want map[string][]string
	for trial := 0; trial < 10; trial++ {
		order := make([]Item, len(items))
		copy(order, items)
		rng := xrand.New(uint64(trial + 1))
		for i := len(order) - 1; i > 0; i-- {
			j := int(rng.Uint64() % uint64(i+1))
			order[i], order[j] = order[j], order[i]
		}
		x := NewLSHIndex(ClusterConfig{LSHBands: 8, Threshold: 0.7})
		addAll(x, order)
		got := make(map[string][]string)
		for _, key := range x.Partitions() {
			got[key] = x.Members(key)
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: partitions differ:\n got %v\nwant %v", trial, got, want)
		}
	}
}

// nearThresholdFamilies builds families whose variants replace a growing
// share of the base's lines, so cosines with the family drift down through
// the 0.7 threshold: some variants join a partition through a close sibling
// yet sit below the threshold against the partition's centroid.
func nearThresholdFamilies(families, perFamily int) []Item {
	e := NewEmbedder(EmbedConfig{})
	var items []Item
	for f := 0; f < families; f++ {
		for p := 0; p < perFamily; p++ {
			var src strings.Builder
			for k := 0; k < 24; k++ {
				if k < 2*p {
					fmt.Fprintf(&src, "def variant%d_%d_step%d(y%d): return mutate%d_%d(y%d)\n", f, p, k, k, p, k, k)
				} else {
					fmt.Fprintf(&src, "def family%d_step%d(x%d): return op%d_%d(x%d)\n", f, k, k, f, k, k)
				}
			}
			tokens := Tokenize(src.String())
			items = append(items, Item{
				ID:     fmt.Sprintf("f%d-p%02d", f, p),
				Vector: e.EmbedTokens(tokens),
				Hash:   SimHash(tokens),
			})
		}
	}
	return items
}

// TestLSHPartitionsCoverClusters pins what the engine's per-partition
// clustering rests on: every LSHIndex partition yields at most one cluster,
// and that cluster's members all lie inside the partition.
func TestLSHPartitionsCoverClusters(t *testing.T) {
	items := nearThresholdFamilies(5, 10)
	parts, clusters := clusterPartitions(items, DefaultClusterConfig())
	kept, left := 0, 0
	for i, part := range parts {
		if len(clusters[i]) > 1 {
			t.Fatalf("partition %v yields %d clusters", part, len(clusters[i]))
		}
		in := make(map[string]bool, len(part))
		for _, it := range part {
			in[it.ID] = true
		}
		for _, c := range clusters[i] {
			for _, m := range c.Members {
				if !in[m] {
					t.Fatalf("cluster member %s lies outside its partition %v", m, part)
				}
			}
			kept += len(c.Members)
			left += len(part) - len(c.Members)
		}
	}
	if kept == 0 || left == 0 {
		t.Fatalf("fixture must both cluster items and leave some partition members out (kept %d, left out %d)", kept, left)
	}
}

// TestClusterItemsScratchReuse re-clusters different inputs through one
// shared Scratch and requires bit-identical output to scratch-free calls —
// no state may leak between calls.
func TestClusterItemsScratchReuse(t *testing.T) {
	sc := NewScratch()
	inputs := [][]Item{
		makeItems(t, 1, 5),
		nearThresholdFamilies(1, 10),
		nil,
		makeItems(t, 3, 1),
		makeItems(t, 1, 300), // spans two silhouette groups
		makeItems(t, 1, 5),
	}
	for round := 0; round < 2; round++ { // second pass reuses warmed buffers
		for i, items := range inputs {
			want := ClusterItemsScratch(items, DefaultClusterConfig(), nil, nil)
			got := ClusterItemsScratch(items, DefaultClusterConfig(), nil, sc)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d input %d: scratch result differs", round, i)
			}
		}
	}
}
