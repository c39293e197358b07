package main

import (
	"testing"
	"time"

	"github.com/ormkit/incmap/internal/obsv"
)

func span(id, parent uint64, name string, start, dur int) obsv.SpanData {
	return obsv.SpanData{ID: id, Parent: parent, Name: name,
		Start: time.Duration(start) * time.Millisecond, Dur: time.Duration(dur) * time.Millisecond}
}

func TestAttributeNestedAndParallel(t *testing.T) {
	spans := []obsv.SpanData{
		span(1, 0, "bench.compile", 0, 100),
		span(2, 1, "Compile", 10, 80),
		// Two workers overlap for 20ms: each gets half of the overlap.
		span(3, 2, "containment-check", 20, 30),
		span(4, 2, "containment-check", 30, 30),
		// Lifetime spans are left out entirely.
		span(5, 1, "exec.scan", 0, 100),
	}
	a := attribute(spans)
	want := map[uint64]time.Duration{1: 20, 2: 40, 3: 20, 4: 20}
	for i, s := range a.spans {
		if got := a.self[i]; got != want[s.ID]*time.Millisecond {
			t.Errorf("span %d (%s): self %v, want %vms", s.ID, s.Name, got, want[s.ID])
		}
	}
	var sum time.Duration
	for _, d := range a.self {
		sum += d
	}
	if sum != 100*time.Millisecond {
		t.Errorf("self times sum to %v, want the 100ms the spans cover", sum)
	}
	if a.lifetime != 100*time.Millisecond {
		t.Errorf("lifetime %v, want 100ms", a.lifetime)
	}
	layers := a.selfByLayer()
	if layers["containment"] != 40*time.Millisecond || layers["compiler"] != 60*time.Millisecond {
		t.Errorf("per-layer self times %v", layers)
	}
}

func TestReconcileCountsOnlyLayerTime(t *testing.T) {
	covered := []obsv.SpanData{
		span(1, 0, "bench.iteration", 0, 100),
		span(2, 1, "bench.evolve", 1, 98),
		span(3, 2, "Evolve", 10, 80),
	}
	if layers, err := reconciled(attribute(covered), 100*time.Millisecond); err != nil || layers != 98*time.Millisecond {
		t.Errorf("covered iteration: layers %v, err %v; want 98ms and no error", layers, err)
	}
	// A 20ms gap inside the iteration that no layer's span covers is the
	// benchmark's own time and must fail the check.
	gap := []obsv.SpanData{
		span(1, 0, "bench.iteration", 0, 100),
		span(2, 1, "bench.evolve", 0, 40),
		span(3, 1, "bench.evolve", 60, 40),
	}
	a := attribute(gap)
	if layers, err := reconciled(a, 100*time.Millisecond); err == nil {
		t.Errorf("uncovered gap: layers %v reconciled with 100ms; want a failure", layers)
	}
	if got := a.selfByLayer()["bench"]; got != 20*time.Millisecond {
		t.Errorf("bench self time %v, want the 20ms gap", got)
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		label string
	}{{5, "max"}, {20, "p50"}, {100, "p90"}, {1000, "p99"}, {20000, "p99.9"}} {
		s := make(samples, c.n)
		for i := range s {
			s[i] = time.Duration(i + 1)
		}
		if _, label := s.tail(); label != c.label {
			t.Errorf("%d samples: tail %s, want %s", c.n, label, c.label)
		}
	}
}
