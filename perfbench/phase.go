package main

import (
	"context"
	"time"

	"github.com/ormkit/incmap/internal/obsv"
)

// loop runs body for iterations 0, 1, ... while the next iteration, at
// the mean pace so far, still ends within budget, and at least minIters
// times; with exact > 0 it runs exactly exact iterations instead (the
// traced phase replays the untraced phase's iterations). body returns the
// busy time it measured. loop returns the iteration count, the summed busy
// time and the wall time.
func loop(budget time.Duration, minIters, exact int, body func(i int) time.Duration) (int, time.Duration, time.Duration) {
	start := time.Now()
	var busy time.Duration
	i := 0
	for {
		if exact > 0 {
			if i >= exact {
				break
			}
		} else if i >= minIters {
			elapsed := time.Since(start)
			if elapsed+elapsed/time.Duration(i) > budget {
				break
			}
		}
		busy += body(i)
		i++
	}
	return i, busy, time.Since(start)
}

// runPhases drives a closed-loop workload. Untraced, it measures for the
// whole budget. Traced, it first runs the same body untraced for half the
// budget, then replays exactly those iterations under a recording tracer,
// so the per-layer metrics come from the traced phase and the tracing
// overhead is the difference of the two phases' busy times. reset is
// called before each phase to restore the workload's starting state.
// measured is called with the phase that produces the reported figures.
// Traced, each iteration runs inside a bench.iteration span, so the
// benchmark's own bookkeeping between layer calls is attributed too; body
// opens its spans under the context it is given.
func runPhases(cfg config, r *report, minIters int, reset func(), body func(tc *tracer, ctx context.Context, i int) time.Duration,
	measured func(tc *tracer, iters int, busy, wall time.Duration)) {
	ctx := context.Background()
	defer r.markRSS()
	if !cfg.trace {
		reset()
		n, busy, wall := loop(cfg.budget(), minIters, 0, func(i int) time.Duration { return body(nil, ctx, i) })
		measured(nil, n, busy, wall)
		return
	}
	reset()
	n, untracedBusy, _ := loop(cfg.budget(), 1, 0, func(i int) time.Duration { return body(nil, ctx, i) })
	reset()
	tc := startTracing()
	_, tracedBusy, wall := loop(0, 0, n, func(i int) time.Duration {
		sp, ictx := tc.span(ctx, "bench.iteration")
		defer sp.End(obsv.OutcomeOK)
		return body(tc, ictx, i)
	})
	spans := tc.stop()
	reconcile(r, spans, wall, untracedBusy, tracedBusy)
	tc.spans = spans
	measured(tc, n, tracedBusy, wall)
}
