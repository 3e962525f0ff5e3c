package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"malgraph/internal/collect"
	"malgraph/internal/ecosys"
	"malgraph/internal/graph"
	"malgraph/internal/world"
)

// similarDigests hashes the §III-B output of a built graph: every similar
// edge with its attrs (endpoints ordered, lines sorted), and every
// SimilarClusters entry bit for bit (members, centroid, silhouette, intra
// similarity) in ecosystem order.
func similarDigests(mg *MalGraph) (edges, clusters string) {
	var lines []string
	for _, e := range mg.G.Edges(graph.Similar) {
		from, to := e.From, e.To
		if from > to {
			from, to = to, from
		}
		keys := make([]string, 0, len(e.Attrs))
		for k := range e.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		line := from + "|" + to
		for _, k := range keys {
			line += "|" + k + "=" + e.Attrs[k]
		}
		lines = append(lines, line)
	}
	sort.Strings(lines)
	eh := sha256.Sum256([]byte(strings.Join(lines, "\n")))

	ch := sha256.New()
	for _, eco := range ecosys.All() {
		for _, c := range mg.SimilarClusters[eco] {
			fmt.Fprintf(ch, "%s|%s|%x|%x|", eco, strings.Join(c.Members, ","),
				math.Float64bits(c.Silhouette), math.Float64bits(c.IntraSim))
			for _, x := range c.Centroid {
				fmt.Fprintf(ch, "%x,", math.Float64bits(x))
			}
			fmt.Fprintln(ch, len(c.Centroid))
		}
	}
	return hex.EncodeToString(eh[:]), hex.EncodeToString(ch.Sum(nil))
}

// TestSimilarStageDigest pins the similar stage's output — edges, attrs and
// cluster values to the bit — for two simulated worlds. The digests were
// recorded from the general LSH + union-find + K-Means + silhouette
// clusterer this package used before the one-centroid refiner; they must
// only change with a deliberate change to §III-B. Reports are left out so
// the crawler's fetch order cannot reach the result.
func TestSimilarStageDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two worlds")
	}
	for _, tc := range []struct {
		seed            uint64
		edges, clusters string
	}{
		{20240404,
			"15318d3897d4467afd03d1bbc69344f393f6362fa1ab5448a88a9c7c19b1e89a",
			"8951a7fb0cb12566c85cfcb55416e75f7d385f941fbdff88d55c0fa41c47ab86"},
		{7,
			"5781e6f8fb20fb9b15b2098f87784b450a65c8578143cb69c5e374c8c05705be",
			"fb7351669283d917e7b18ad5d5abf4b0e4b086d85e58a3e5b712a9fc4c1f944d"},
	} {
		w, err := world.Build(world.Config{Seed: tc.seed, Scale: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		ds, err := collect.Run(w.Sources, w.Fleet, w.Config.CollectAt)
		if err != nil {
			t.Fatal(err)
		}
		mg, err := Build(ds, nil, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		edges, clusters := similarDigests(mg)
		if edges != tc.edges || clusters != tc.clusters {
			t.Errorf("seed %d: similar stage digests\n edges    %s\n clusters %s\nwant\n edges    %s\n clusters %s",
				tc.seed, edges, clusters, tc.edges, tc.clusters)
		}
	}
}
