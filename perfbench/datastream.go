package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"github.com/ormkit/incmap/internal/compiler"
	"github.com/ormkit/incmap/internal/exec"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/obsv"
	"github.com/ormkit/incmap/internal/orm"
	"github.com/ormkit/incmap/internal/state"
	"github.com/ormkit/incmap/internal/workload"
)

// data-stream: the data plane with the compiler in set-up only. Each
// iteration writes a seeded client state of chain-300 through the update
// views into a fresh RingStore (the write leg), then one client opens and
// drains every query and association view over it in a seeded order (the
// read leg, a closed loop).

const (
	streamChainN = 300
	// streamPerType caps entities per type; RandomState draws about half
	// of it on average, so the state holds about 37k rows.
	streamPerType = 250
)

// streamView is one view the read leg drains, with the row count the
// seeded client state implies for it.
type streamView struct {
	name   string
	query  bool
	expect int
}

func runDataStream(cfg config, r *report) error {
	ctx := context.Background()
	var (
		m     *frag.Mapping
		v     *frag.Views
		cs    *state.ClientState
		views []streamView
	)
	setupCPU, setupWall, err := timeSetup(9, func() error {
		m = workload.Chain(streamChainN)
		var err error
		if v, err = compiler.New().Compile(m); err != nil {
			return err
		}
		cs = orm.RandomState(m, uint32(cfg.seed), streamPerType)
		views = nil
		for ty := range v.Query {
			views = append(views, streamView{name: ty, query: true})
		}
		for a := range v.Assoc {
			views = append(views, streamView{name: a, expect: len(cs.Assocs[a])})
		}
		for i := range views {
			if views[i].query {
				views[i].expect = len(cs.Entities[m.Client.SetFor(views[i].name).Name])
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	r.setSetup(setupCPU, setupWall)

	var (
		rng                           *rand.Rand
		ring                          *exec.RingStore
		writes, queries, opens, nexts samples
		writesCPU, queriesCPU         samples // CPU time of the same writes and queries
		written, scanned, batches     int64
		writeMem, scanMem             memDelta
		cnt                           counters
	)
	reset := func() {
		rng = rand.New(rand.NewSource(cfg.seed))
		writes, queries, opens, nexts = nil, nil, nil, nil
		writesCPU, queriesCPU = nil, nil
		written, scanned, batches = 0, 0, 0
		writeMem, scanMem, cnt = memDelta{}, memDelta{}, counters{}
	}
	env := func() *exec.Env { return &exec.Env{Catalog: m.Catalog(), Store: ring} }
	body := func(tc *tracer, ctx context.Context, i int) time.Duration {
		// Write leg, into a fresh ring (the previous one is garbage now).
		ring = nil
		m0 := readMemIf(tc != nil)
		c0 := snap()
		sp, wctx := tc.span(ctx, "bench.write")
		u0, t0 := cpuTime(), time.Now()
		rs, err := orm.MaterializeInto(wctx, m, v, cs, exec.Options{})
		dw := time.Since(t0)
		dwc := cpuTime() - u0
		sp.End(obsv.OutcomeOK)
		cnt.add(snap().delta(c0))
		if tc != nil {
			writeMem.add(memSince(m0))
		}
		r.op(err)
		if err != nil {
			return dw
		}
		ring = rs
		writes = append(writes, dw)
		writesCPU = append(writesCPU, dwc)
		written += int64(exec.TotalRows(ring))

		// Read leg: every view, in a seeded order.
		busy := dw
		e := env()
		m0 = readMemIf(tc != nil)
		c0 = snap()
		for _, k := range rng.Perm(len(views)) {
			sv := views[k]
			u0 := cpuTime()
			d, rows, err := drainView(tc, ctx, e, v, sv, &opens, &nexts, &batches)
			queriesCPU = append(queriesCPU, cpuTime()-u0)
			busy += d
			queries = append(queries, d)
			scanned += int64(rows)
			if err == nil && rows != sv.expect {
				err = fmt.Errorf("view %s returned %d rows, the seeded state has %d", sv.name, rows, sv.expect)
			}
			r.op(err)
		}
		cnt.add(snap().delta(c0))
		if tc != nil {
			scanMem.add(memSince(m0))
		}
		return busy
	}
	measured := func(tc *tracer, n int, busy, wall time.Duration) {
		tail, label := queries.tail()
		rowsPerWrite := ratio(float64(written), float64(len(writes)))
		scanRate := ratio(float64(scanned), secs(queries.sum()))
		writeRate := ratio(rowsPerWrite, secs(writes.median()))
		r.set("op_cpu_ms", ms(queriesCPU.median()))
		r.set("rate_per_cpu_s", ratio(rowsPerWrite, secs(writesCPU.median())))
		r.name("write_rows_per_s", writeRate, "rows/s")
		r.name("write_leg_ms", ms(writes.median()), "ms")
		r.name("scan_rows_per_s", scanRate, "rows/s")
		r.name("query_p50_ms", ms(queries.median()), "ms")
		r.name("query_"+label+"_ms", ms(tail), "ms")
		r.name("rows_per_write", rowsPerWrite, "count")
		r.name("iterations", float64(n), "count")
		if tc == nil {
			return
		}
		r.layerSet("exec.open_us", us(opens.median()))
		r.layerSet("exec.next_p50_us", us(nexts.median()))
		r.layerSet("exec.next_p99_us", us(nexts.quantile(0.99)))
		r.layerSet("exec.rows_per_batch", ratio(float64(scanned), float64(batches)))
		r.layerSet("exec.scan_rows_per_result", ratio(float64(cnt[obsv.MExecScanRows]), float64(scanned)))
		r.layerSet("exec.join.build_rows", float64(cnt[obsv.MExecJoinBuildRows])/float64(n))
		r.layerSet("runtime.write_alloc_bytes_per_row", ratio(float64(writeMem.bytes), float64(written)))
		r.layerSet("runtime.write_gc_cycles", float64(writeMem.gcs)/float64(n))
		r.layerSet("runtime.scan_alloc_bytes_per_row", ratio(float64(scanMem.bytes), float64(scanned)))
	}
	runPhases(cfg, r, 3, reset, body, measured)

	// Check: the entities and association pairs read back from the last
	// ring equal the seeded client state as a multiset.
	r.op(readBack(ctx, m, v, env(), cs))
	return nil
}

// drainView opens one view, drains it and closes it, timing the whole
// query and, separately, the open and each Next() on the root iterator.
func drainView(tc *tracer, ctx context.Context, e *exec.Env, v *frag.Views, sv streamView,
	opens, nexts *samples, batches *int64) (time.Duration, int, error) {
	sp, qctx := tc.span(ctx, "bench.query")
	defer sp.End(obsv.OutcomeOK)
	t0 := time.Now()
	osp, octx := tc.span(qctx, "bench.open")
	var next func() (int, bool, error)
	var closer func() error
	if sv.query {
		it, err := exec.OpenView(octx, e, v.Query[sv.name], exec.Strict, exec.Options{})
		osp.End(obsv.OutcomeOK)
		if err != nil {
			return time.Since(t0), 0, err
		}
		next = func() (int, bool, error) { b, ok, err := it.Next(); return len(b), ok, err }
		closer = it.Close
	} else {
		it, err := exec.Open(octx, e, v.Assoc[sv.name].Q, exec.Options{})
		osp.End(obsv.OutcomeOK)
		if err != nil {
			return time.Since(t0), 0, err
		}
		next = func() (int, bool, error) { b, ok, err := it.Next(); return len(b), ok, err }
		closer = it.Close
	}
	*opens = append(*opens, time.Since(t0))
	rows := 0
	for {
		nsp, _ := tc.span(qctx, "bench.next")
		n0 := time.Now()
		n, ok, err := next()
		*nexts = append(*nexts, time.Since(n0))
		nsp.End(obsv.OutcomeOK)
		if err != nil {
			_ = closer() // the Next error is the one to report
			return time.Since(t0), rows, err
		}
		if !ok {
			break
		}
		rows += n
		*batches++
	}
	csp, _ := tc.span(qctx, "bench.close")
	err := closer()
	csp.End(obsv.OutcomeOK)
	return time.Since(t0), rows, err
}

// readBack drains every set's root query view and every association view
// and compares what they return with the client state that was written.
func readBack(ctx context.Context, m *frag.Mapping, v *frag.Views, e *exec.Env, cs *state.ClientState) error {
	got := state.NewClientState()
	for _, set := range m.Client.Sets() {
		qv, ok := v.Query[set.Type]
		if !ok {
			continue
		}
		it, err := exec.OpenView(ctx, e, qv, exec.Strict, exec.Options{})
		if err != nil {
			return err
		}
		ents, err := exec.CollectEntities(it)
		if err != nil {
			return err
		}
		for _, en := range ents {
			got.Insert(set.Name, en)
		}
	}
	for name, av := range v.Assoc {
		it, err := exec.Open(ctx, e, av.Q, exec.Options{})
		if err != nil {
			return err
		}
		res, err := exec.Collect(it)
		if err != nil {
			return err
		}
		for _, row := range res.Rows {
			got.Relate(name, state.AssocPair{Ends: row})
		}
	}
	return sameClient("entities read back from the ring", cs, got)
}
