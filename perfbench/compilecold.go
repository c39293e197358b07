package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"github.com/ormkit/incmap/internal/compiler"
	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/obsv"
	"github.com/ormkit/incmap/internal/orm"
	"github.com/ormkit/incmap/internal/pipeline"
	"github.com/ormkit/incmap/internal/store"
	"github.com/ormkit/incmap/internal/workload"
)

// compile-cold: repeated cold full compiles, each with a fresh compiler
// and SatCache, of three models that stress different parts of the
// compiler, plus a warm session open of the chain from a store set-up
// filled. One iteration (a round) compiles each model once, in a seeded
// order, then opens the chain warm.

const (
	chainN = 1002
	// warmOpensPerRound steadies the warm-open median: one open is ~0.5 s
	// against a ~5 s round of cold compiles.
	warmOpensPerRound = 2
)

var (
	hubRimOpt   = workload.HubRimOptions{N: 3, M: 5, TPH: true}
	customerOpt = workload.CustomerOptions{Types: 90, Hierarchies: 10, LargestTPH: 40, Associations: 12, SharedTableFKs: 2}
)

type coldModel struct {
	name string
	m    *frag.Mapping
	// cold are the views of the latest cold compile; d and cpu the
	// compile times and CPU times of the measured phase.
	cold   *frag.Views
	d, cpu samples
}

func runCompileCold(cfg config, r *report) error {
	ctx := context.Background()
	var models []*coldModel
	var storeDir string
	rep := 0
	setupCPU, setupWall, err := timeSetup(3, func() error {
		rep++
		models = []*coldModel{
			{name: "chain", m: workload.Chain(chainN)},
			{name: "hubrim", m: workload.HubRim(hubRimOpt)},
			{name: "customer", m: workload.Customer(customerOpt)},
		}
		storeDir = filepath.Join(cfg.dir, fmt.Sprintf("store%d", rep))
		st, err := store.Open(storeDir)
		if err != nil {
			return err
		}
		// The user's first open: a cold compile snapshotted to the store.
		_, err = pipeline.NewSessionCompile(ctx, models[0].m, pipeline.Options{Store: st})
		return err
	})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	r.setSetup(setupCPU, setupWall)
	chain := models[0]

	var (
		rng                 *rand.Rand
		rounds              samples // summed cold compile time per round
		roundsCPU           samples // the same rounds' CPU time
		warm                samples
		warmViews           *frag.Views
		warmHits, warmTried int
		cnt                 counters
	)
	reset := func() {
		rng = rand.New(rand.NewSource(cfg.seed))
		rounds, roundsCPU, warm, warmHits, warmTried = nil, nil, nil, 0, 0
		for _, m := range models {
			m.d, m.cpu = nil, nil
		}
		cnt = counters{}
	}
	// warmOpen opens chain-1002 through a fresh store handle, as a
	// restarted process would, and requires a warm start.
	warmOpen := func(tc *tracer, ctx context.Context) time.Duration {
		c0 := snap()
		sp, cctx := tc.span(ctx, "bench.warm-open")
		st, err := store.Open(storeDir)
		if err != nil {
			sp.End(obsv.OutcomeOK)
			r.op(err)
			return 0
		}
		t0 := time.Now()
		s, err := pipeline.NewSessionCompile(cctx, chain.m, pipeline.Options{Store: st})
		d := time.Since(t0)
		sp.End(obsv.OutcomeOK)
		cnt.add(snap().delta(c0))
		warm = append(warm, d)
		warmTried++
		if err == nil && s.Stats().WarmStarts != 1 {
			err = fmt.Errorf("warm open of chain-%d fell back to a cold compile", chainN)
		}
		r.op(err)
		if err == nil {
			warmHits++
			_, warmViews = s.Generation()
		}
		return d
	}
	body := func(tc *tracer, ctx context.Context, i int) time.Duration {
		var round, roundCPU time.Duration
		for _, k := range rng.Perm(len(models)) {
			cm := models[k]
			c := compiler.New()
			c.Opts.SatCache = cond.NewSatCache()
			c0 := snap()
			sp, cctx := tc.span(ctx, "bench.compile")
			u0, t0 := cpuTime(), time.Now()
			v, err := c.CompileCtx(cctx, cm.m)
			d := time.Since(t0)
			dc := cpuTime() - u0
			roundCPU += dc
			sp.End(obsv.OutcomeOK)
			cnt.add(snap().delta(c0))
			r.op(err)
			if err == nil {
				cm.cold = v
			}
			cm.d = append(cm.d, d)
			cm.cpu = append(cm.cpu, dc)
			round += d
		}
		rounds = append(rounds, round)
		roundsCPU = append(roundsCPU, roundCPU)

		busy := round
		for w := 0; w < warmOpensPerRound; w++ {
			busy += warmOpen(tc, ctx)
		}
		return busy
	}
	measured := func(tc *tracer, n int, busy, wall time.Duration) {
		tail, label := rounds.tail()
		var perModel []time.Duration
		for _, cm := range models {
			perModel = append(perModel, cm.cpu.median())
		}
		r.set("op_cpu_ms", ms(geomean(perModel)))
		r.set("rate_per_cpu_s", ratio(float64(len(models)*len(roundsCPU)), secs(roundsCPU.sum())))
		r.name("round_p50_ms", ms(rounds.median()), "ms")
		r.name("compiles_per_s", ratio(float64(len(models)*len(rounds)), secs(rounds.sum())), "1/s")
		r.name("round_"+label+"_ms", ms(tail), "ms")
		for _, cm := range models {
			r.name("compile_"+cm.name+"_s", secs(cm.d.median()), "s")
		}
		r.name("warm_open_s", secs(warm.median()), "s")
		r.name("rounds", float64(n), "count")
		if tc == nil {
			return
		}
		per := float64(n)
		r.layerSet("compiler.validate_s", secs(durations(tc.spans, "Validate").sum())/per)
		r.layerSet("compiler.views_s", secs(durations(tc.spans, "query-views").sum()+durations(tc.spans, "update-views").sum())/per)
		r.layerSet("compiler.cells", float64(cnt[obsv.MCompileCells])/per)
		r.layerSet("containment.checks", float64(cnt[obsv.MContainments])/per)
		r.layerSet("containment.block_pairs", float64(cnt[obsv.MContainmentBlockPairs])/per)
		r.layerSet("containment.check_s", secs(durations(tc.spans, "containment-check").sum())/per)
		hits, misses := float64(cnt[obsv.MCompileCacheHits]), float64(cnt[obsv.MCompileCacheMisses])
		r.layerSet("cond.satcache.hits", hits/per)
		r.layerSet("cond.satcache.lookups", (hits+misses)/per)
		r.layerSet("cond.satcache.hit_ratio", ratio(hits, hits+misses))
		r.layerSet("cond.sat.conflicts", float64(cnt[obsv.MSatConflicts])/per)
		r.layerSet("cond.sat.propagations", float64(cnt[obsv.MSatPropagations])/per)
		r.layerSet("cond.intern.size", float64(snap()[obsv.MInternSize]))
		r.layerSet("store.bytes_read", ratio(float64(cnt[obsv.MStoreBytesRead]), float64(warmTried)))
		r.layerSet("store.warm_hit", ratio(float64(warmHits), float64(warmTried)))
	}
	runPhases(cfg, r, 3, reset, body, measured)

	// Checks: every model's cold views roundtrip a seeded client state, and
	// the warm-opened chain generation equals the cold one view for view.
	for _, cm := range models {
		if cm.cold == nil {
			continue
		}
		err := orm.Roundtrip(cm.m, cm.cold, orm.RandomState(cm.m, uint32(cfg.seed), 2))
		r.op(wrapf(err, "roundtrip on %s", cm.name))
	}
	if warmViews != nil && chain.cold != nil {
		r.op(wrapf(sameViews(warmViews, chain.cold), "warm-opened chain views differ from cold ones"))
	}
	return nil
}
