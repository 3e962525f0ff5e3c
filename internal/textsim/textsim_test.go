package textsim

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenizeBasics(t *testing.T) {
	src := `const url = "https://evil.example/x";` + "\n" + `exec(payload_42, 3.14)`
	tokens := Tokenize(src)
	joined := strings.Join(tokens, " ")
	for _, want := range []string{"const", "url", "https", "exec", "payload_42", "3.14"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("token %q missing from %v", want, tokens)
		}
	}
}

func TestTokenizeStringContents(t *testing.T) {
	tokens := Tokenize(`x = "10.0.0.1"`)
	joined := strings.Join(tokens, " ")
	if !strings.Contains(joined, "10.0.0.1") {
		t.Fatalf("string literal contents must survive tokenisation: %v", tokens)
	}
}

func TestTokenizeLongLiteralSplit(t *testing.T) {
	blob := strings.Repeat("A", 100)
	tokens := Tokenize(`b = "` + blob + `"`)
	for _, tok := range tokens {
		if len(tok) > 16 {
			t.Fatalf("long literal not split: %q", tok)
		}
	}
}

func TestTokenizeEscapedQuote(t *testing.T) {
	tokens := Tokenize(`s = "a\"b"` + "\nnext_ident")
	joined := strings.Join(tokens, " ")
	if !strings.Contains(joined, "next_ident") {
		t.Fatalf("escaped quote broke tokenisation: %v", tokens)
	}
}

func TestSnippets(t *testing.T) {
	tokens := make([]string, 1100)
	for i := range tokens {
		tokens[i] = "t"
	}
	snips := Snippets(tokens, 512)
	if len(snips) != 3 {
		t.Fatalf("want 3 snippets, got %d", len(snips))
	}
	if len(snips[0]) != 512 || len(snips[2]) != 76 {
		t.Fatalf("snippet sizes: %d, %d", len(snips[0]), len(snips[2]))
	}
	if Snippets(nil, 512) != nil {
		t.Fatal("empty tokens must give nil")
	}
	if Snippets(tokens, 0) != nil {
		t.Fatal("non-positive window must give nil")
	}
}

func TestEmbedderFixedLengthAndNormalised(t *testing.T) {
	e := NewEmbedder(EmbedConfig{})
	short := e.EmbedSource("payload = fetch(endpoint)")
	long := e.EmbedSource(strings.Repeat("def handler(request): upload(request.headers)\n", 500))
	if len(short) != e.Config().Dim() || len(long) != e.Config().Dim() {
		t.Fatalf("vector lengths differ: %d vs %d", len(short), len(long))
	}
	for _, v := range [][]float64{short, long} {
		var ss float64
		for _, x := range v {
			ss += x * x
		}
		if math.Abs(ss-1) > 1e-9 {
			t.Fatalf("vector not L2-normalised: %v", ss)
		}
	}
}

func TestEmbedEmptySource(t *testing.T) {
	e := NewEmbedder(EmbedConfig{})
	v := e.EmbedSource("")
	for _, x := range v {
		if x != 0 {
			t.Fatal("empty source must embed to zero vector")
		}
	}
}

func TestSameCodeSimilarEmbedding(t *testing.T) {
	e := NewEmbedder(EmbedConfig{})
	base := strings.Repeat("def collect(env):\n    return send(env, url)\n", 40)
	variant := strings.Replace(base, "url", "url2", 1) // a one-token CC change
	unrelated := strings.Repeat("class Parser:\n    def walk(self, tree): yield tree\n", 40)

	simVariant := Cosine(e.EmbedSource(base), e.EmbedSource(variant))
	simUnrelated := Cosine(e.EmbedSource(base), e.EmbedSource(unrelated))
	if simVariant < 0.95 {
		t.Fatalf("one-line variant similarity %v too low", simVariant)
	}
	if simUnrelated > simVariant {
		t.Fatalf("unrelated code (%v) more similar than variant (%v)", simUnrelated, simVariant)
	}
}

func TestCosineProperties(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) < 2 {
			return true
		}
		a := make([]float64, len(raw))
		for i, v := range raw {
			a[i] = float64(v)
		}
		self := Cosine(a, a)
		allZero := true
		for _, v := range a {
			if v != 0 {
				allZero = false
				break
			}
		}
		if allZero {
			return self == 0
		}
		return math.Abs(self-1) < 1e-9 && Cosine(a, a) <= 1.0001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCosineZeroVector(t *testing.T) {
	if got := Cosine([]float64{0, 0}, []float64{1, 2}); got != 0 {
		t.Fatalf("zero-vector cosine = %v", got)
	}
}

func TestSimHashLocality(t *testing.T) {
	base := strings.Repeat("send(environ, endpoint_url)\n", 60)
	variant := strings.Replace(base, "endpoint_url", "endpoint_url2", 2)
	unrelated := strings.Repeat("matrix.transpose().rows.filter(even)\n", 60)

	hBase := SimHash(Tokenize(base))
	hVar := SimHash(Tokenize(variant))
	hUn := SimHash(Tokenize(unrelated))

	if popcount(hBase^hVar) >= popcount(hBase^hUn) {
		t.Fatalf("SimHash not locality sensitive: variant dist %d, unrelated dist %d",
			popcount(hBase^hVar), popcount(hBase^hUn))
	}
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// TestBands pins the banded LSH keyspace: band bi of nBands is the bi-th
// 64/nBands-bit slice of the fingerprint, tagged with bi in the top nibble,
// and the band count falls back to 4 and is clamped to 16.
func TestBands(t *testing.T) {
	const fp = 0xDEADBEEFCAFEF00D
	if got := bandKey(fp, 4, 0); got != 0xF00D {
		t.Fatalf("band 0 = %x", got)
	}
	if got := bandKey(fp, 4, 3); got != 3<<60|0xDEAD {
		t.Fatalf("band 3 = %x", got)
	}
	for _, tc := range []struct{ in, want int }{{0, 4}, {-1, 4}, {8, 8}, {16, 16}, {99, 16}} {
		if got, _ := (ClusterConfig{Threshold: 0.7, LSHBands: tc.in}).candidateParams(); got != tc.want {
			t.Fatalf("LSHBands %d resolves to %d bands, want %d", tc.in, got, tc.want)
		}
	}
}

func makeItems(t *testing.T, families int, perFamily int) []Item {
	t.Helper()
	e := NewEmbedder(EmbedConfig{})
	var items []Item
	for f := 0; f < families; f++ {
		base := strings.Repeat(fmt.Sprintf("def family%d(a, b):\n    return upload%d(a) + b\n", f, f), 30+7*f)
		for p := 0; p < perFamily; p++ {
			src := base
			if p > 0 { // small CC-style perturbation
				src = strings.Replace(src, "upload", fmt.Sprintf("upload_%d_", p), 1)
			}
			tokens := Tokenize(src)
			items = append(items, Item{
				ID:     fmt.Sprintf("f%d-p%d", f, p),
				Vector: e.EmbedTokens(tokens),
				Hash:   SimHash(tokens),
			})
		}
	}
	return items
}

// partitionCorpus splits items into their LSHIndex partitions under cfg,
// in canonical key order — the units the engine clusters.
func partitionCorpus(items []Item, cfg ClusterConfig) [][]Item {
	x := NewLSHIndex(cfg)
	byID := make(map[string]Item, len(items))
	for _, it := range items {
		x.Add(it.ID, it.Hash, it.Vector)
		byID[it.ID] = it
	}
	var parts [][]Item
	for _, key := range x.Partitions() {
		var part []Item
		for _, id := range x.Members(key) {
			part = append(part, byID[id])
		}
		parts = append(parts, part)
	}
	return parts
}

// clusterPartitions clusters each LSHIndex partition of items on its own,
// as the engine does, returning the partitions (canonical key order) and
// each one's clusters.
func clusterPartitions(items []Item, cfg ClusterConfig) (parts [][]Item, clusters [][]Cluster) {
	parts = partitionCorpus(items, cfg)
	sc := NewScratch()
	for _, part := range parts {
		clusters = append(clusters, ClusterItemsScratch(part, cfg, nil, sc))
	}
	return parts, clusters
}

func TestClusterRecoversFamilies(t *testing.T) {
	_, perPart := clusterPartitions(makeItems(t, 4, 5), DefaultClusterConfig())
	var clusters []Cluster
	for _, cs := range perPart {
		clusters = append(clusters, cs...)
	}
	if len(clusters) != 4 {
		t.Fatalf("want 4 clusters, got %d", len(clusters))
	}
	for _, c := range clusters {
		if len(c.Members) != 5 {
			t.Fatalf("cluster size %d, want 5: %v", len(c.Members), c.Members)
		}
		family := c.Members[0][:2]
		for _, m := range c.Members {
			if m[:2] != family {
				t.Fatalf("mixed cluster: %v", c.Members)
			}
		}
		if c.IntraSim < 0.95 {
			t.Fatalf("intra-group similarity %v below the ~0.999 the paper reports", c.IntraSim)
		}
		if c.Silhouette < 0.3 {
			t.Fatalf("surviving cluster has silhouette %v < 0.3", c.Silhouette)
		}
	}
}

func TestClusterDropsSingletons(t *testing.T) {
	_, perPart := clusterPartitions(makeItems(t, 3, 1), DefaultClusterConfig()) // three unrelated singletons
	for _, cs := range perPart {
		if len(cs) != 0 {
			t.Fatalf("singletons must not form subgraphs (MinSize 2): %v", cs)
		}
	}
}

func TestClusterEmptyInput(t *testing.T) {
	if got := ClusterItemsScratch(nil, DefaultClusterConfig(), nil, nil); got != nil {
		t.Fatal("empty input must give nil clusters")
	}
}

func TestClusterDeterminism(t *testing.T) {
	items := makeItems(t, 1, 6)
	a := ClusterItemsScratch(items, DefaultClusterConfig(), nil, nil)
	b := ClusterItemsScratch(items, DefaultClusterConfig(), nil, nil)
	if len(a) != 1 || !reflect.DeepEqual(a, b) {
		t.Fatalf("non-deterministic clusters:\n%v\n%v", a, b)
	}
}

// unit returns v scaled to unit length.
func unit(v ...float64) []float64 {
	out := append([]float64(nil), v...)
	normalize(out)
	return out
}

func TestKMeansUnassignedBelowThreshold(t *testing.T) {
	// The seed centroid is (2, 1)/√5: c's cosine with it is 0.447 < 0.7, so
	// the refinement keeps only a and b and re-centres on them.
	items := []Item{
		{ID: "a", Vector: unit(1, 0)},
		{ID: "b", Vector: unit(1, 0)},
		{ID: "c", Vector: unit(0, 1)},
	}
	got := ClusterItemsScratch(items, DefaultClusterConfig(), nil, nil)
	want := []Cluster{{Members: []string{"a", "b"}, Centroid: []float64{1, 0}, Silhouette: 1, IntraSim: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

func TestClusterNoneClearThreshold(t *testing.T) {
	// Three orthogonal items: each has cosine 1/√3 ≈ 0.577 with the seed.
	items := []Item{
		{ID: "x", Vector: unit(1, 0, 0)},
		{ID: "y", Vector: unit(0, 1, 0)},
		{ID: "z", Vector: unit(0, 0, 1)},
	}
	if got := ClusterItemsScratch(items, DefaultClusterConfig(), nil, nil); got != nil {
		t.Fatalf("no item clears the threshold, got %+v", got)
	}
}

// TestSimplifiedSilhouetteSingleCluster pins the one-centroid simplified
// silhouette: with no other centroid, an item at cosine distance a ≤ 1 from
// the centroid scores 1−a, its cosine, so the score is the members' mean
// cosine with the centroid.
func TestSimplifiedSilhouetteSingleCluster(t *testing.T) {
	items := []Item{
		{ID: "a", Vector: unit(1, 0)},
		{ID: "b", Vector: unit(0.8, 0.6)},
	}
	got := ClusterItemsScratch(items, DefaultClusterConfig(), nil, nil)
	if len(got) != 1 || len(got[0].Members) != 2 {
		t.Fatalf("want one cluster of both items, got %+v", got)
	}
	c := got[0]
	want := (Dot(items[0].Vector, c.Centroid) + Dot(items[1].Vector, c.Centroid)) / 2
	if math.Abs(c.Silhouette-want) > 1e-12 || math.Abs(c.IntraSim-want) > 1e-12 {
		t.Fatalf("silhouette %v, intra %v, want %v", c.Silhouette, c.IntraSim, want)
	}
	if math.Abs(want-3/math.Sqrt(10)) > 1e-12 {
		t.Fatalf("mean cosine %v, want 3/√10", want)
	}
}

func TestClusterSizeAndSilhouetteFilters(t *testing.T) {
	items := []Item{
		{ID: "a", Vector: unit(1, 0)},
		{ID: "b", Vector: unit(0.8, 0.6)},
	}
	cfg := DefaultClusterConfig() // keeps the cluster (TestSimplifiedSilhouetteSingleCluster)
	small := cfg
	small.MinSize = 3
	if got := ClusterItemsScratch(items, small, nil, nil); got != nil {
		t.Fatalf("MinSize 3 must drop a 2-member cluster, got %+v", got)
	}
	tight := cfg
	tight.MinSilhouette = 0.95 // the cluster scores 3/√10 ≈ 0.949
	if got := ClusterItemsScratch(items, tight, nil, nil); got != nil {
		t.Fatalf("MinSilhouette 0.95 must drop the cluster, got %+v", got)
	}
}

// TestClusterTrimmedVectors feeds zero-tail-trimmed vectors of different
// lengths: the result must match the same items padded to full length, and
// the centroid must cover the longest member.
func TestClusterTrimmedVectors(t *testing.T) {
	full := [][]float64{unit(1, 0, 0, 0, 0, 0), unit(0.9, 0.3, 0, 0, 0, 0), unit(0.9, 0, 0, 0, 0, 0.3)}
	trimmed := make([]Item, len(full))
	padded := make([]Item, len(full))
	for i, v := range full {
		id := fmt.Sprintf("v%d", i)
		trimmed[i] = Item{ID: id, Vector: TrimZeroTail(v)}
		padded[i] = Item{ID: id, Vector: v}
	}
	if len(trimmed[0].Vector) != 1 || len(trimmed[1].Vector) != 2 {
		t.Fatalf("fixture vectors not trimmed: %v", trimmed)
	}
	got := ClusterItemsScratch(trimmed, DefaultClusterConfig(), nil, nil)
	want := ClusterItemsScratch(padded, DefaultClusterConfig(), nil, nil)
	if len(got) != 1 || len(want) != 1 {
		t.Fatalf("want one cluster each, got %+v and %+v", got, want)
	}
	g, w := got[0], want[0]
	if !reflect.DeepEqual(g.Members, w.Members) || len(g.Members) != 3 {
		t.Fatalf("members %v, want all of %v", g.Members, w.Members)
	}
	if len(g.Centroid) != 6 {
		t.Fatalf("centroid length %d, want the longest member's 6", len(g.Centroid))
	}
	for d := range w.Centroid {
		if math.Abs(g.Centroid[d]-w.Centroid[d]) > 1e-12 {
			t.Fatalf("centroid[%d] = %v, want %v", d, g.Centroid[d], w.Centroid[d])
		}
	}
	if math.Abs(g.Silhouette-w.Silhouette) > 1e-12 || math.Abs(g.IntraSim-w.IntraSim) > 1e-12 {
		t.Fatalf("trimmed scores %v/%v, padded %v/%v", g.Silhouette, g.IntraSim, w.Silhouette, w.IntraSim)
	}
}
