package main

// The traced run's module replays. Pipeline.AppendExternal,
// core.Engine.Ingest and Epoch.Results each span several modules with no
// seam to observe them through, so the traced run drives the same inputs
// through those modules' public functions, in the order the engine calls
// them, on a shadow engine of its own: resolve → dependency scan → embed →
// LSH → re-cluster → Engine.Ingest → Engine.View, then the Results blocks
// the ingest invalidated. The replays time each module; the pipeline's own
// state is never touched.

import (
	"sort"
	"sync"

	"malgraph"
	"malgraph/internal/analysis"
	"malgraph/internal/behavior"
	"malgraph/internal/collect"
	"malgraph/internal/core"
	"malgraph/internal/depscan"
	"malgraph/internal/detect"
	"malgraph/internal/ecosys"
	"malgraph/internal/graph"
	"malgraph/internal/parallel"
	"malgraph/internal/reports"
	"malgraph/internal/textsim"
	"malgraph/internal/world"
	"malgraph/internal/xrand"
)

type shadow struct {
	cfg      core.Config
	pcfg     malgraph.Config
	world    *world.World
	eng      *core.Engine
	resolver *collect.Resolver
	scanner  *depscan.Scanner
	embedder *textsim.Embedder
	lsh      map[ecosys.Ecosystem]*textsim.LSHIndex
	items    map[string]textsim.Item
	scratch  sync.Pool
	view     *core.MalGraph
}

func newShadow(p *malgraph.Pipeline) *shadow {
	cfg := core.DefaultConfig()
	return &shadow{
		cfg:      cfg,
		pcfg:     p.Config,
		world:    p.World,
		eng:      core.NewEngine(cfg),
		resolver: collect.NewResolver(p.World.Fleet, p.World.Config.CollectAt),
		scanner:  depscan.NewScanner(),
		embedder: textsim.NewEmbedder(cfg.Embed),
		lsh:      make(map[ecosys.Ecosystem]*textsim.LSHIndex),
		items:    make(map[string]textsim.Item),
	}
}

// ingest replays one stream batch: the observations delivery, then the
// reports delivery when there are reports, each resolved and ingested on
// its own, as AppendExternal does.
func (s *shadow) ingest(tr *Tracer, obs []collect.Observation, reps []*reports.Report) error {
	op := tr.Root("ingest.replay")
	defer tr.End(op)
	if err := s.resolveIngest(tr, obs, nil); err != nil {
		return err
	}
	if len(reps) > 0 {
		return s.resolveIngest(tr, nil, reps)
	}
	return nil
}

func (s *shadow) resolveIngest(tr *Tracer, obs []collect.Observation, reps []*reports.Report) error {
	sp := tr.Begin("collect.resolve")
	b, err := s.resolver.Resolve(obs, s.eng.Dataset())
	tr.End(sp)
	if err != nil {
		return err
	}
	return s.ingestBatch(tr, core.Batch{Entries: b.Entries, PerSource: b.PerSource, Stats: b.Stats, Reports: reps, At: b.At})
}

// ingestCorpus replays a one-shot build of a collected corpus batch.
func (s *shadow) ingestCorpus(tr *Tracer, b core.Batch) error {
	op := tr.Root("ingest.replay")
	defer tr.End(op)
	return s.ingestBatch(tr, b)
}

// ingestBatch replays the per-module work of core.Engine.Ingest for b, then
// runs the real Ingest and View on the shadow engine.
func (s *shadow) ingestBatch(tr *Tracer, b core.Batch) error {
	var arts []*collect.Entry
	for _, e := range b.Entries {
		if e.Artifact == nil {
			continue
		}
		if prev, ok := s.eng.Dataset().Entry(e.Coord); ok && prev.Artifact != nil {
			continue
		}
		arts = append(arts, e)
	}
	if len(arts) > 0 {
		sp := tr.Begin("depscan.scan")
		parallel.Map(len(arts), func(i int) int {
			manifest, _ := s.scanner.FromManifest(arts[i].Artifact)
			return len(manifest) + len(depscan.ExtractImports(arts[i].Artifact))
		})
		tr.End(sp)

		sp = tr.Begin("textsim.embed")
		items := parallel.Map(len(arts), func(i int) textsim.Item {
			tokens := textsim.TokenizeAppend(nil, arts[i].Artifact.MergedSource())
			hashed := textsim.HashTokens(tokens, nil)
			return textsim.Item{
				ID:     core.NodeID(arts[i].Coord),
				Vector: textsim.TrimZeroTail(s.embedder.EmbedHashed(hashed)),
				Hash:   textsim.SimHashHashed(hashed),
			}
		})
		tr.End(sp)

		sp = tr.Begin("textsim.lsh")
		dirty := make(map[ecosys.Ecosystem][]string)
		for i, it := range items {
			eco := arts[i].Coord.Ecosystem
			x := s.lsh[eco]
			if x == nil {
				x = textsim.NewLSHIndex(s.cfg.Cluster)
				s.lsh[eco] = x
			}
			x.Add(it.ID, it.Hash, it.Vector)
			s.items[it.ID] = it
			dirty[eco] = append(dirty[eco], it.ID)
		}
		type job struct {
			eco   ecosys.Ecosystem
			key   string
			items []textsim.Item
		}
		var jobs []job
		for _, eco := range sortedEcos(dirty) {
			x := s.lsh[eco]
			x.DrainRetired()
			seen := make(map[string]bool)
			for _, id := range dirty[eco] {
				key, ok := x.Root(id)
				if !ok || seen[key] {
					continue
				}
				seen[key] = true
				members := x.Members(key)
				pitems := make([]textsim.Item, 0, len(members))
				for _, m := range members {
					pitems = append(pitems, s.items[m])
				}
				jobs = append(jobs, job{eco: eco, key: key, items: pitems})
			}
		}
		tr.End(sp)

		sp = tr.Begin("textsim.cluster")
		parallel.Map(len(jobs), func(i int) []textsim.Cluster {
			sc, _ := s.scratch.Get().(*textsim.Scratch)
			if sc == nil {
				sc = textsim.NewScratch()
			}
			defer s.scratch.Put(sc)
			rng := xrand.New(s.cfg.Seed).Derive("similar/" + jobs[i].eco.String() + "/" + jobs[i].key)
			return textsim.ClusterItemsScratch(jobs[i].items, s.cfg.Cluster, rng, sc)
		})
		tr.End(sp)
	}

	sp := tr.Begin("core.ingest")
	_, err := s.eng.Ingest(b)
	tr.End(sp)
	if err != nil {
		return err
	}
	sp = tr.Begin("core.view")
	s.view = s.eng.View()
	tr.End(sp)
	return nil
}

// results replays the invalidated Results blocks on the shadow view, one
// module call chain per block, sequentially so each block's time is its
// own (the pipeline runs them concurrently).
func (s *shadow) results(tr *Tracer, dirty blocks) {
	op := tr.Root("results.replay")
	defer tr.End(op)
	mg := s.view
	if mg == nil {
		return
	}
	ds := mg.Dataset
	run := func(on bool, name string, fn func()) {
		if !on {
			return
		}
		sp := tr.Begin(name)
		fn()
		tr.End(sp)
	}
	run(dirty.rq1, "analysis.rq1", func() {
		analysis.SourceSizes(ds)
		analysis.Overlap(ds)
		analysis.MissingRates(ds)
		analysis.OccurrenceCDF(ds)
		analysis.Timeline(ds)
		analysis.ClassifyMissing(ds, s.world.Fleet)
	})
	run(dirty.rq2, "analysis.rq2", func() {
		analysis.SubgraphStatsFor(mg, graph.Similar)
		analysis.Operations(mg, graph.Similar)
		analysis.ActivePeriods(mg, graph.Similar)
		analysis.Diversity(mg)
	})
	run(dirty.rq3, "analysis.rq3", func() {
		analysis.SubgraphStatsFor(mg, graph.Dependency)
		analysis.TopDependencyTargets(mg, 2)
		analysis.DependencyReuse(mg, 3)
		analysis.ActivePeriods(mg, graph.Dependency)
	})
	run(dirty.rq4, "analysis.rq4", func() {
		analysis.SubgraphStatsFor(mg, graph.Coexisting)
		analysis.Operations(mg, graph.Coexisting)
		analysis.ActivePeriods(mg, graph.Coexisting)
		analysis.IoCs(mg.Reports, 10)
	})
	run(dirty.behaviors, "behavior.table11", func() {
		behavior.TableXI(mg, s.pcfg.MinBehaviorGroup)
	})
	run(dirty.validation, "detect.validation", func() {
		available := ds.Available()
		arts := make([]*ecosys.Artifact, 0, len(available))
		for _, e := range available {
			arts = append(arts, e.Artifact)
		}
		detect.ValidateSampling(arts, 5, min(100, len(arts)), func(a *ecosys.Artifact) bool {
			rec, ok := s.world.Record(a.Coord)
			return ok && rec != nil
		}, xrand.New(s.pcfg.Seed).Derive("validation"))
	})
}

// maxPartition is the largest LSH partition across the shadow's indexes.
func (s *shadow) maxPartition() int {
	best := 0
	for _, x := range s.lsh {
		for _, key := range x.Partitions() {
			best = max(best, len(x.Members(key)))
		}
	}
	return best
}

func sortedEcos(m map[ecosys.Ecosystem][]string) []ecosys.Ecosystem {
	out := make([]ecosys.Ecosystem, 0, len(m))
	for eco := range m {
		out = append(out, eco)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}
