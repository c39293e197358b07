package containment_test

import (
	"context"
	"strings"
	"testing"

	"github.com/ormkit/incmap/internal/compiler"
	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/containment"
	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/workload"
)

// BenchmarkContainmentChain runs the foreign-key containment checks of a
// full chain-300 validation, π_β(σ_{β NOT NULL}(Q_T)) ⊆ π_γ(Q_T') for every
// foreign key, from a fresh SatCache per op. Right sides sharing a
// referenced table and columns are prenormalized once per op, as the
// compiler does.
func BenchmarkContainmentChain(b *testing.B) {
	m := workload.Chain(300)
	views, err := compiler.New().Compile(m)
	if err != nil {
		b.Fatal(err)
	}
	type check struct {
		lhs, rhs cqt.Expr
		key      string
	}
	var checks []check
	for _, tn := range m.MappedTables() {
		for _, fk := range m.Store.Table(tn).FKs {
			var notNull []cond.Expr
			cols := make([]cqt.ProjCol, len(fk.Cols))
			rcols := make([]cqt.ProjCol, len(fk.RefCols))
			for i, c := range fk.Cols {
				notNull = append(notNull, cond.NotNull(c))
				cols[i] = cqt.ColAs(c, fk.RefCols[i])
				rcols[i] = cqt.Col(fk.RefCols[i])
			}
			checks = append(checks, check{
				lhs: cqt.Project{In: cqt.Select{In: views.Update[tn].Q, Cond: cond.NewAnd(notNull...)}, Cols: cols},
				rhs: cqt.Project{In: views.Update[fk.RefTable].Q, Cols: rcols},
				key: fk.RefTable + "\x00" + strings.Join(fk.RefCols, "\x00"),
			})
		}
	}
	if len(checks) == 0 {
		b.Fatal("chain model has no foreign keys")
	}
	ctx := context.Background()
	cat := m.Catalog()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch := containment.NewChecker(cat)
		ch.Cache = cond.NewSatCache()
		pres := map[string]*containment.Prenorm{}
		for _, c := range checks {
			pre := pres[c.key]
			if pre == nil {
				if pre, err = ch.PrenormalizeRight(c.rhs); err != nil {
					b.Fatal(err)
				}
				pres[c.key] = pre
			}
			ok, err := ch.ContainsPreCtx(ctx, c.lhs, pre)
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				b.Fatal("chain foreign key not preserved")
			}
		}
	}
	b.ReportMetric(float64(len(checks)), "checks/op")
}
