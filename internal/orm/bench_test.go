package orm_test

import (
	"context"
	"testing"

	"github.com/ormkit/incmap/internal/compiler"
	"github.com/ormkit/incmap/internal/exec"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/orm"
	"github.com/ormkit/incmap/internal/state"
	"github.com/ormkit/incmap/internal/workload"
)

// streamBench compiles chain-300 and seeds the client state the
// data-stream benchmark writes: RandomState(m, 3, 250), about 37k rows
// through the update views.
func streamBench(b *testing.B) (*frag.Mapping, *frag.Views, *state.ClientState) {
	b.Helper()
	m := workload.Chain(300)
	v, err := compiler.New().Compile(m)
	if err != nil {
		b.Fatalf("compile: %v", err)
	}
	return m, v, orm.RandomState(m, 3, 250)
}

// BenchmarkMaterializeStream is the write leg: the whole client state
// through every update view into a fresh RingStore per op.
func BenchmarkMaterializeStream(b *testing.B) {
	m, v, cs := streamBench(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		rs, err := orm.MaterializeInto(ctx, m, v, cs, exec.Options{})
		if err != nil {
			b.Fatal(err)
		}
		rows = exec.TotalRows(rs)
	}
	b.ReportMetric(float64(rows), "rows/op")
}

// BenchmarkLoadStream is the read leg over the ring the write leg
// fills: every query and association view drained back into a client
// state.
func BenchmarkLoadStream(b *testing.B) {
	m, v, cs := streamBench(b)
	ctx := context.Background()
	rs, err := orm.MaterializeInto(ctx, m, v, cs, exec.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := orm.LoadStream(ctx, m, v, rs, exec.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
