package orm_test

import (
	"context"
	"reflect"
	"testing"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/exec"
	"github.com/ormkit/incmap/internal/orm"
	"github.com/ormkit/incmap/internal/state"
	"github.com/ormkit/incmap/internal/workload"
)

// TestStreamOwnership pins who owns what crosses the executor's map
// boundary. The executor reuses its batch memory across pulls and
// iterators, so the rows it appends and the entities it constructs must
// be fresh maps that nothing else aliases.
func TestStreamOwnership(t *testing.T) {
	ctx := context.Background()
	m := workload.PaperFull()
	v := compileFor(t, m)
	cs := orm.RandomState(m, 41, 6)

	ring, err := orm.MaterializeInto(ctx, m, v, cs, exec.Options{BatchSize: 2})
	if err != nil {
		t.Fatalf("materialize into ring: %v", err)
	}
	before, err := ring.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{}
	seen := map[uintptr]string{}
	for table, rows := range before.Tables {
		for _, r := range rows {
			want[table] = append(want[table], r.Canonical())
			p := reflect.ValueOf(r).Pointer()
			if prev, dup := seen[p]; dup {
				t.Fatalf("two appended rows (%s and %s) share one map", prev, table)
			}
			seen[p] = table
		}
	}
	if len(seen) == 0 {
		t.Fatal("the write leg appended no rows")
	}
	// Mutate every client-side map the write leg read from.
	for _, es := range cs.Entities {
		for _, e := range es {
			if _, aliased := seen[reflect.ValueOf(e.Attrs).Pointer()]; aliased {
				t.Fatalf("an appended row aliases the Attrs of a %s entity", e.Type)
			}
			for a := range e.Attrs {
				e.Attrs[a] = cond.String("mutated")
			}
			e.Attrs["Extra"] = cond.Int(-1)
		}
	}
	for _, ps := range cs.Assocs {
		for _, p := range ps {
			for c := range p.Ends {
				p.Ends[c] = cond.String("mutated")
			}
		}
	}
	after, err := ring.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for table, rows := range after.Tables {
		for i, r := range rows {
			if got := r.Canonical(); got != want[table][i] {
				t.Fatalf("%s row %d changed with the client state: %s, was %s", table, i, got, want[table][i])
			}
		}
	}

	// Entities pulled one per batch stay intact across later pulls and
	// after Close.
	for ty := range v.Query {
		it, err := orm.QueryTypeStream(ctx, m, v, ring, ty, exec.Options{BatchSize: 1})
		if err != nil {
			t.Fatalf("open %s: %v", ty, err)
		}
		var kept []*state.Entity
		var at []string
		for {
			batch, ok, err := it.Next()
			if err != nil {
				t.Fatalf("pull %s: %v", ty, err)
			}
			if !ok {
				break
			}
			for _, e := range batch {
				kept = append(kept, e)
				at = append(at, e.Canonical())
			}
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		attrs := map[uintptr]bool{}
		for i, e := range kept {
			if got := e.Canonical(); got != at[i] {
				t.Fatalf("%s entity %d changed after later pulls: %s, was %s", ty, i, got, at[i])
			}
			p := reflect.ValueOf(e.Attrs).Pointer()
			if attrs[p] {
				t.Fatalf("two %s entities share one Attrs map", ty)
			}
			attrs[p] = true
		}
	}
}
