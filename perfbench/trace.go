package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/ormkit/incmap/internal/obsv"
)

// reconcileTolerance bounds |reference − Σ layer self time| / reference
// in a traced run: the self time of the spans that belong to a layer must
// account for the traced phase's reference time to within 5%. Time only a
// benchmark span covers (bench.iteration) is benchmark bookkeeping, not a
// layer's, so more than 5% of it fails the run.
const reconcileTolerance = 0.05

// tracer is the traced run's recorder. A nil *tracer is the untraced run:
// every method is a no-op, so workloads share one code path.
type tracer struct {
	tr   *obsv.Tracer
	sink *obsv.RecordingSink
	// spans holds what the tracer recorded once the traced phase ended.
	spans []obsv.SpanData
}

// startTracing installs a recording tracer as obsv's process default, so
// every layer records its spans, and returns it.
func startTracing() *tracer {
	t := &tracer{sink: obsv.NewRecordingSink()}
	t.tr = obsv.New(t.sink)
	obsv.SetDefault(t.tr)
	return t
}

// stop uninstalls the tracer and returns the spans it recorded.
func (t *tracer) stop() []obsv.SpanData {
	if t == nil {
		return nil
	}
	obsv.SetDefault(nil)
	return t.sink.Drain()
}

// span opens a benchmark-side span under the span ctx carries and returns
// the context the layer call should receive, so the layer's own spans nest
// beneath it.
func (t *tracer) span(ctx context.Context, name string, attrs ...obsv.Attr) (*obsv.Span, context.Context) {
	if t == nil {
		return nil, ctx
	}
	sp := t.tr.SpanCtx(ctx, name, attrs...)
	return sp, obsv.ContextWithSpan(ctx, sp)
}

// isLifetime reports spans that cover an object's lifetime rather than its
// busy time: executor operator spans stay open from Open to Close while
// the caller does other work, so they are left out of self-time
// attribution (their cumulative lifetime is reported on its own) and the
// data plane is timed by the benchmark's spans around Next() instead.
func isLifetime(name string) bool { return name == "exec" || strings.HasPrefix(name, "exec.") }

// benchLayer names the layer each benchmark-side span calls into. Its self
// time — the part of the call no span of the program covers — is that
// layer's: the data plane, the HTTP path and warm opens record no spans of
// their own.
var benchLayer = map[string]string{
	"bench.compile":   "compiler",
	"bench.warm-open": "store",
	"bench.evolve":    "pipeline",
	"bench.clone":     "frag",
	"bench.plan":      "modef",
	"bench.write":     "orm",
	"bench.query":     "exec",
	"bench.open":      "exec",
	"bench.next":      "exec",
	"bench.close":     "exec",
	"bench.request":   "server",
}

// layerOf maps a span name to the layer that owns it.
func layerOf(name string) string {
	if l, ok := benchLayer[name]; ok {
		return l
	}
	switch {
	case strings.HasPrefix(name, "bench."):
		return "bench"
	case name == "containment-check":
		return "containment"
	case name == "Compile" || name == "Validate" || name == "span-worker" ||
		name == "update-views" || name == "query-views":
		return "compiler"
	case name == "Apply" || name == "incremental-validate" || strings.HasPrefix(name, "adapt-"):
		return "core"
	case name == "Evolve" || strings.HasPrefix(name, "rung-"):
		return "pipeline"
	}
	return "other"
}

// attribution is the outcome of splitting a traced phase's wall time over
// its spans.
type attribution struct {
	spans []obsv.SpanData
	// self[i] is span i's self time: the part of its interval during which
	// none of its children ran. Where several leaf spans run at once
	// (parallel validation workers) each instant is split evenly between
	// them, so the self times of all spans add up to the time covered by
	// at least one span.
	self []time.Duration
	// lifetime sums the durations of the excluded lifetime spans.
	lifetime time.Duration
}

// attribute computes self times by a sweep over span start and end
// events, using the parent links to know which open spans have open
// children.
func attribute(all []obsv.SpanData) attribution {
	var a attribution
	for _, s := range all {
		if isLifetime(s.Name) {
			a.lifetime += s.Dur
			continue
		}
		a.spans = append(a.spans, s)
	}
	a.self = make([]time.Duration, len(a.spans))
	byID := make(map[uint64]int, len(a.spans))
	for i, s := range a.spans {
		byID[s.ID] = i
	}
	type event struct {
		at    time.Duration
		start bool
		i     int
	}
	evs := make([]event, 0, 2*len(a.spans))
	for i, s := range a.spans {
		evs = append(evs, event{s.Start, true, i}, event{s.Start + s.Dur, false, i})
	}
	sort.Slice(evs, func(x, y int) bool {
		if evs[x].at != evs[y].at {
			return evs[x].at < evs[y].at
		}
		return !evs[x].start && evs[y].start // ends first
	})
	open := make([]bool, len(a.spans))
	openKids := make([]int, len(a.spans))
	frontier := map[int]bool{}
	parentOf := func(i int) (int, bool) {
		p, ok := byID[a.spans[i].Parent]
		return p, ok && a.spans[i].Parent != 0 && open[p]
	}
	var last time.Duration
	for _, e := range evs {
		if dt := e.at - last; dt > 0 && len(frontier) > 0 {
			share := dt / time.Duration(len(frontier))
			for i := range frontier {
				a.self[i] += share
			}
		}
		last = e.at
		if e.start {
			open[e.i] = true
			frontier[e.i] = true
			if p, ok := parentOf(e.i); ok {
				if openKids[p] == 0 {
					delete(frontier, p)
				}
				openKids[p]++
			}
			continue
		}
		delete(frontier, e.i)
		if p, ok := parentOf(e.i); ok {
			openKids[p]--
			if openKids[p] == 0 {
				frontier[p] = true
			}
		}
		open[e.i] = false
	}
	return a
}

// selfByLayer sums self time per layer.
func (a attribution) selfByLayer() map[string]time.Duration {
	out := map[string]time.Duration{}
	for i, s := range a.spans {
		out[layerOf(s.Name)] += a.self[i]
	}
	return out
}

// durations returns the durations of spans with the given name.
func durations(spans []obsv.SpanData, name string) samples {
	var out samples
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.Dur)
		}
	}
	return out
}

// attr returns a span attribute's value.
func attr(s obsv.SpanData, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// reconciled sums the self time attributed to layers — every span but
// the benchmark's own bookkeeping spans — and checks it against the
// reference time within reconcileTolerance.
func reconciled(a attribution, ref time.Duration) (time.Duration, error) {
	var layers time.Duration
	for layer, d := range a.selfByLayer() {
		if layer != "bench" {
			layers += d
		}
	}
	gap := ratio(absDur(ref-layers).Seconds(), ref.Seconds())
	if gap > reconcileTolerance || ref <= 0 {
		return layers, fmt.Errorf("trace: layer self times sum to %v against a reference of %v (%.1f%% apart, tolerance %.0f%%)",
			layers, ref, 100*gap, 100*reconcileTolerance)
	}
	return layers, nil
}

// reconcile reports the traced phase's attribution: per-layer self time,
// the reconciliation of the layers' self time against the reference time
// (the traced phase's wall time for a closed loop, the time at least one
// request was in flight for an open one), and the tracing overhead
// (traced busy time minus the untraced busy time of the same work). A gap
// over reconcileTolerance fails the run.
func reconcile(r *report, spans []obsv.SpanData, ref, untracedBusy, tracedBusy time.Duration) {
	a := attribute(spans)
	layers, err := reconciled(a, ref)
	r.layerSet("trace.wall_s", secs(ref))
	r.layerSet("trace.self_sum_s", secs(layers))
	r.layerSet("trace.reconcile_error", ratio(absDur(ref-layers).Seconds(), ref.Seconds()))
	r.layerSet("trace.spans", float64(len(spans)))
	r.layerSet("trace.overhead_s", secs(tracedBusy-untracedBusy))
	r.layerSet("trace.overhead_ratio", ratio(secs(tracedBusy-untracedBusy), secs(untracedBusy)))
	r.layerSet("exec.lifetime_s", secs(a.lifetime))
	for layer, d := range a.selfByLayer() {
		r.layerSet("self."+layer+"_s", secs(d))
	}
	r.op(err)
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}
