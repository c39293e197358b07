package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"github.com/ormkit/incmap/internal/compiler"
	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/core"
	"github.com/ormkit/incmap/internal/edm"
	"github.com/ormkit/incmap/internal/experiments"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/modef"
	"github.com/ormkit/incmap/internal/obsv"
	"github.com/ormkit/incmap/internal/orm"
	"github.com/ormkit/incmap/internal/pipeline"
	"github.com/ormkit/incmap/internal/state"
	"github.com/ormkit/incmap/internal/workload"
)

// evolve-chain: one developer (a closed loop, one client) pushes a seeded
// sequence of the Figure 9 SMO kinds at random targets through an
// in-memory pipeline.Session on chain-1002. Each block of len(smoKinds)
// evolves runs in a session started afresh from the compiled base, so the
// model stays near 1002 types for the whole run, the final full-compile
// check stays cheap, and each suite operation runs once per session under
// the names experiments.Suite gives it.

// rssEvolves is where evolve-chain reads its peak RSS. The process keeps
// memory from every evolve it ran (peak RSS grew from 185 MB after ~900
// evolves to 340 MB after ~4500), so reading it after a fixed number of
// evolves keeps a faster machine, which fits more evolves into a run,
// from reporting more memory.
const rssEvolves = 600

// smoKind is one kind of the suite. rejected marks the kinds the chain
// model correctly refuses: AE-TPC removes an association endpoint's keys
// from its table (the Figure 6 violation). modef marks the kinds modef
// plans, whose planning step the traced run times on its own.
type smoKind struct {
	name            string
	rejected, modef bool
}

// smoKinds is one block of the loop: the nine Figure 9 kinds of
// experiments.Suite and the deferred, style-inferring AddEntity that
// mapserved sends — twice, the daemon's form being the common one.
var smoKinds = []smoKind{
	{name: "AE-inferred", modef: true},
	{name: "AE-inferred", modef: true},
	{name: "AE-TPT", modef: true},
	{name: "AE-TPC", modef: true, rejected: true},
	{name: "AE-TPH", modef: true},
	{name: "AEP-1p-TPT"},
	{name: "AEP-2p-TPT"},
	{name: "AEP-3p-TPT"},
	{name: "AA-FK", modef: true},
	{name: "AA-JT", modef: true},
	{name: "AP"},
}

// planned is a suite operation resolved against the session's cloned
// generation inside the incremental compiler, the way the daemon's
// deferred SMOs are, so planning never touches a live generation.
type planned struct{ experiments.NamedOp }

func (p *planned) Describe() string                       { return p.Name }
func (p *planned) Plan(m *frag.Mapping) (core.SMO, error) { return p.Make(m) }

// suiteOp builds the i-th operation, of kind k, at the given targets.
func suiteOp(k smoKind, i int, t experiments.SuiteTargets) core.SMO {
	if k.name == "AE-inferred" {
		attrs := []edm.Attribute{{Name: "NewExtra", Type: cond.KindString, Nullable: true}}
		return modef.PlannedAddEntity(fmt.Sprintf("Bench%d", i), t.TPTParent, attrs)
	}
	for _, op := range experiments.Suite(t) {
		if op.Name == k.name {
			return &planned{op}
		}
	}
	panic("perfbench: no suite operation " + k.name)
}

// randomTargets draws the suite's attachment points from the chain.
func randomTargets(rng *rand.Rand) experiments.SuiteTargets {
	ty := func() string { return fmt.Sprintf("Entity%d", 1+rng.Intn(chainN)) }
	pair := func() (string, string) {
		a := 1 + rng.Intn(chainN)
		b := 1 + rng.Intn(chainN-1)
		if b >= a {
			b++
		}
		return fmt.Sprintf("Entity%d", a), fmt.Sprintf("Entity%d", b)
	}
	t := experiments.SuiteTargets{TPTParent: ty(), TPCParent: ty(), TPHParent: ty(), PropType: ty()}
	t.FKEnd1, t.FKEnd2 = pair()
	t.JTEnd1, t.JTEnd2 = pair()
	return t
}

func runEvolveChain(cfg config, r *report) error {
	ctx := context.Background()
	var baseM *frag.Mapping
	var baseV *frag.Views
	setupCPU, setupWall, err := timeSetup(3, func() error {
		s, err := pipeline.NewSessionCompile(ctx, workload.Chain(chainN), pipeline.Options{})
		if err != nil {
			return err
		}
		baseM, baseV = s.Generation()
		return nil
	})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	r.setSetup(setupCPU, setupWall)

	var (
		rng       *rand.Rand
		order     []int
		byKind    map[string]samples
		cpuByKind map[string]samples
		sess      *pipeline.Session
		refused   []refusal
		lat       samples
		blocks    samples // busy time of each whole block
		block     time.Duration
		blocksCPU samples
		blockCPU  time.Duration
		plan      samples
		mem       memDelta
		cnt       counters
	)
	reset := func() {
		rng = rand.New(rand.NewSource(cfg.seed))
		lat, blocks, block, plan, refused, mem, cnt = nil, nil, 0, nil, nil, memDelta{}, counters{}
		blocksCPU, blockCPU = nil, 0
		byKind, cpuByKind = map[string]samples{}, map[string]samples{}
	}
	body := func(tc *tracer, ctx context.Context, i int) time.Duration {
		// Kinds come in blocks holding smoKinds once, in a seeded order, so
		// every seed runs the same mix; each block is a fresh session.
		if i%len(smoKinds) == 0 {
			sess = pipeline.NewSession(baseM, baseV, pipeline.Options{})
			order = rng.Perm(len(smoKinds))
		}
		k := smoKinds[order[i%len(smoKinds)]]
		op := suiteOp(k, i, randomTargets(rng))
		if p, ok := op.(core.Planner); ok && tc != nil && k.modef {
			// The modef planning step on its own, timed on a clone of the
			// head generation; Evolve repeats it inside its transaction.
			sp, _ := tc.span(ctx, "bench.clone")
			clone := sess.Head().M.Clone()
			sp.End(obsv.OutcomeOK)
			sp, _ = tc.span(ctx, "bench.plan")
			t0 := time.Now()
			_, _ = p.Plan(clone)
			plan = append(plan, time.Since(t0))
			sp.End(obsv.OutcomeOK)
		}
		var c0 counters
		var m0 = readMemIf(tc != nil)
		if tc != nil {
			c0 = snap()
		}
		sp, cctx := tc.span(ctx, "bench.evolve")
		u0, t0 := cpuTime(), time.Now()
		_, _, err := sess.Evolve(cctx, op)
		d := time.Since(t0)
		dc := cpuTime() - u0
		sp.End(obsv.OutcomeOK)
		if tc != nil {
			mem.add(memSince(m0))
			cnt.add(snap().delta(c0))
		}
		lat = append(lat, d)
		block += d
		blockCPU += dc
		if (i+1)%len(smoKinds) == 0 {
			blocks = append(blocks, block)
			blocksCPU = append(blocksCPU, blockCPU)
			block, blockCPU = 0, 0
		}
		byKind[k.name] = append(byKind[k.name], d)
		cpuByKind[k.name] = append(cpuByKind[k.name], dc)
		if i+1 == rssEvolves {
			r.markRSS()
		}
		switch {
		case k.rejected && err == nil:
			r.op(fmt.Errorf("%s was accepted; the chain model must reject it", op.Describe()))
		case !k.rejected && err != nil:
			// Checked against the full compiler after the loop.
			head := sess.Head()
			refused = append(refused, refusal{head.M, head.V, op, err})
		default:
			r.op(nil)
		}
		return d
	}
	measured := func(tc *tracer, n int, busy, wall time.Duration) {
		tail, label := lat.tail()
		// The kinds' costs differ tenfold, so the median evolve of a block
		// lands between two kinds' clusters, and which two depends on the
		// seed's targets; each kind's median is steady, and their
		// geometric mean moves when any one kind gets slower.
		var perKind []time.Duration
		for _, k := range smoKinds[1:] {
			perKind = append(perKind, cpuByKind[k.name].median())
		}
		r.set("op_cpu_ms", ms(geomean(perKind)))
		// Every block holds the same kinds, so evolves per second of the
		// median block does not depend on where the run stopped, and a
		// few slow evolves do not move it.
		r.set("rate_per_cpu_s", ratio(float64(len(smoKinds)), secs(blocksCPU.median())))
		r.name("evolves_per_s", ratio(float64(len(smoKinds)), secs(blocks.median())), "1/s")
		r.name("evolve_p50_ms", ms(lat.median()), "ms")
		r.name("evolve_"+label+"_ms", ms(tail), "ms")
		r.name("evolves", float64(n), "count")
		for _, k := range smoKinds[1:] {
			r.name("evolve_"+k.name+"_p50_ms", ms(byKind[k.name].median()), "ms")
		}
		if tc == nil {
			return
		}
		// Per-evolve layer times from the program's own spans.
		byParent := map[uint64][]obsv.SpanData{}
		for _, s := range tc.spans {
			byParent[s.Parent] = append(byParent[s.Parent], s)
		}
		var apply, adapt, applySelf, validate, commit samples
		for _, s := range tc.spans {
			switch s.Name {
			case "Apply":
				apply = append(apply, s.Dur)
				var a, kids time.Duration
				for _, c := range byParent[s.ID] {
					kids += c.Dur
					if len(c.Name) > 6 && c.Name[:6] == "adapt-" {
						a += c.Dur
					}
				}
				adapt = append(adapt, a)
				applySelf = append(applySelf, s.Dur-kids)
			case "incremental-validate":
				validate = append(validate, s.Dur)
			case "Evolve":
				rung := time.Duration(0)
				for _, c := range byParent[s.ID] {
					if c.Name == "rung-incremental" {
						rung += c.Dur
					}
				}
				commit = append(commit, s.Dur-rung)
			}
		}
		r.layerSet("core.apply_ms", ms(apply.median()))
		r.layerSet("core.adapt_ms", ms(adapt.median()))
		r.layerSet("core.apply_self_ms", ms(applySelf.median()))
		r.layerSet("core.validate_ms", ms(validate.median()))
		r.layerSet("pipeline.commit_ms", ms(commit.median()))
		r.layerSet("modef.plan_ms", ms(plan.median()))
		per := float64(n)
		r.layerSet("incremental.containments_per_evolve", float64(cnt[obsv.MApplyContainments])/per)
		hits, misses := float64(cnt[obsv.MApplyCacheHits]), float64(cnt[obsv.MApplyCacheMisses])
		r.layerSet("incremental.satcache.hits", hits)
		r.layerSet("incremental.satcache.lookups", hits+misses)
		r.layerSet("incremental.satcache.hit_ratio", ratio(hits, hits+misses))
		r.layerSet("session.evolve.fallback", float64(cnt[obsv.MEvolveFallback]))
		r.layerSet("runtime.alloc_bytes_per_evolve", float64(mem.bytes)/per)
		r.layerSet("cond.intern.size", float64(snap()[obsv.MInternSize]))
	}
	runPhases(cfg, r, 1, reset, body, measured)

	// An unexpected rejection is correct only if the full compiler rejects
	// the same planned change. Each check is a full compile, so only the
	// first few are checked; more than that fails the run.
	for i, f := range refused {
		if i >= maxRefusalChecks {
			r.op(fmt.Errorf("%s rejected (%v); too many rejections to check against the full compiler", f.op.Describe(), f.err))
			continue
		}
		r.op(f.agreesWithFull())
	}

	// Checks on the final generation: a full compile accepts it, and its
	// incremental and full views write and read one seeded client state
	// identically.
	m, incV := sess.Generation()
	fullV, err := compiler.New().Compile(m)
	r.op(wrapf(err, "full compile of the evolved generation"))
	if err == nil {
		r.op(sameData(m, incV, fullV, orm.RandomState(m, uint32(cfg.seed), 2)))
	}
	return nil
}

// maxRefusalChecks caps the full compiles spent on checking rejections.
const maxRefusalChecks = 3

// refusal is an evolve the incremental compiler rejected although its kind
// normally commits, with the generation it was applied to.
type refusal struct {
	m   *frag.Mapping
	v   *frag.Views
	op  core.SMO
	err error
}

// agreesWithFull applies the refused SMO without validation and full
// compiles the result: the rejection stands if either step fails.
func (f refusal) agreesWithFull() error {
	ic := core.NewIncremental()
	ic.Opts.SkipValidation = true
	m, _, err := ic.Apply(f.m, f.v, f.op)
	if err != nil {
		return nil
	}
	if _, err := compiler.New().Compile(m); err != nil {
		return nil
	}
	return fmt.Errorf("%s rejected incrementally (%v), but the full compiler accepts it", f.op.Describe(), f.err)
}

// sameData materializes cs through both generations' update views and
// loads the result through both query views: all four must agree, and the
// loaded state must equal cs.
func sameData(m *frag.Mapping, inc, full *frag.Views, cs *state.ClientState) error {
	ssInc, err := orm.Materialize(m, inc, cs)
	if err != nil {
		return fmt.Errorf("materialize through incremental views: %w", err)
	}
	ssFull, err := orm.Materialize(m, full, cs)
	if err != nil {
		return fmt.Errorf("materialize through full views: %w", err)
	}
	if a, b := storeMultiset(ssInc), storeMultiset(ssFull); !a.equal(b) {
		return fmt.Errorf("incremental and full update views write different rows (first difference %s)", a.firstDiff(b))
	}
	for _, v := range []struct {
		name  string
		views *frag.Views
	}{{"incremental", inc}, {"full", full}} {
		back, err := orm.Load(m, v.views, ssFull)
		if err != nil {
			return fmt.Errorf("load through %s views: %w", v.name, err)
		}
		if err := sameClient("load through "+v.name+" views", cs, back); err != nil {
			return err
		}
	}
	return nil
}
