package exec_test

import (
	"context"
	"math"
	"testing"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/edm"
	"github.com/ormkit/incmap/internal/exec"
	"github.com/ormkit/incmap/internal/rel"
	"github.com/ormkit/incmap/internal/state"
)

// twoTables is a store with tables L(Id, K, A) and R(Id, K, B) and no
// client schema, for hand-built join trees.
func twoTables(t *testing.T) *cqt.Catalog {
	t.Helper()
	s := rel.NewSchema()
	for _, tb := range []rel.Table{
		{Name: "L", Cols: []rel.Column{{Name: "Id", Type: cond.KindInt}, {Name: "K", Type: cond.KindInt, Nullable: true}, {Name: "A", Type: cond.KindString, Nullable: true}}, Key: []string{"Id"}},
		{Name: "R", Cols: []rel.Column{{Name: "Id", Type: cond.KindInt}, {Name: "K", Type: cond.KindInt, Nullable: true}, {Name: "B", Type: cond.KindString, Nullable: true}}, Key: []string{"Id"}},
	} {
		if err := s.AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	return &cqt.Catalog{Client: edm.NewSchema(), Store: s}
}

// TestFullOuterTailBatchSize pins Options.BatchSize on a full-outer
// join's tail, where unmatched build rows are emitted after the probe
// side is exhausted: with unique keys every batch, tail included, holds
// at most BatchSize rows.
func TestFullOuterTailBatchSize(t *testing.T) {
	cat := twoTables(t)
	ss := state.NewStoreState()
	for i := int64(1); i <= 3; i++ {
		ss.InsertRow("L", state.Row{"Id": cond.Int(i), "A": cond.String("l")})
	}
	// Id 3 matches; the other seven build rows form the tail.
	for i := int64(3); i <= 10; i++ {
		ss.InsertRow("R", state.Row{"Id": cond.Int(i), "B": cond.String("r")})
	}
	q := cqt.Join{Kind: cqt.FullOuter, L: cqt.Project{In: cqt.ScanTable{Table: "L"}, Cols: []cqt.ProjCol{cqt.Col("Id"), cqt.Col("A")}},
		R: cqt.Project{In: cqt.ScanTable{Table: "R"}, Cols: []cqt.ProjCol{cqt.Col("Id"), cqt.Col("B")}}, On: [][2]string{{"Id", "Id"}}}
	want, err := cqt.Eval(&cqt.Env{Catalog: cat, Store: ss}, q)
	if err != nil {
		t.Fatal(err)
	}
	env := &exec.Env{Catalog: cat, Store: exec.RingFromState(ss, 2)}
	for _, batch := range []int{1, 2} {
		it, err := exec.Open(context.Background(), env, q, exec.Options{BatchSize: batch})
		if err != nil {
			t.Fatal(err)
		}
		var rows []state.Row
		for {
			b, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if len(b) > batch {
				t.Fatalf("batch size %d: a batch holds %d rows", batch, len(b))
			}
			for _, tu := range b {
				rows = append(rows, tu.Row(it.Cols()))
			}
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		equalMultisets(t, "full outer join", canonicalRows(want.Rows), canonicalRows(rows))
	}
}

// TestJoinKeysMatchMaterializing holds the executor's join keys to the
// materializing evaluator's, which match on rendered values: an integral
// float below 1e6 equals the integer, larger ones render in exponent
// form and match nothing of another kind, -0 is not 0, NaN matches NaN,
// a string never matches a number, and NULL never matches. Both one- and
// two-column keys, under every join kind.
func TestJoinKeysMatchMaterializing(t *testing.T) {
	cat := twoTables(t)
	keys := []cond.Value{
		cond.Int(5), cond.Float(5), cond.Float(5.5), cond.Int(0), cond.Float(0),
		cond.Float(math.Copysign(0, -1)), cond.Int(1000000), cond.Float(1e6),
		cond.Float(math.NaN()), cond.Float(math.Inf(1)), cond.String("5"),
		cond.Bool(true), cond.String("true"), cond.Int(-7), cond.Float(-7),
	}
	ss := state.NewStoreState()
	for i, k := range keys {
		// R holds every key, so each L key meets every other kind; every
		// fourth L row has a NULL K.
		l := state.Row{"Id": cond.Int(int64(i)), "A": cond.String("l")}
		if i%4 != 3 {
			l["K"] = k
		}
		ss.InsertRow("L", l)
		ss.InsertRow("R", state.Row{"Id": cond.Int(int64(i)), "K": k, "B": cond.String("r")})
	}
	side := func(table, val string) cqt.Expr {
		return cqt.Project{In: cqt.ScanTable{Table: table}, Cols: []cqt.ProjCol{cqt.ColAs("Id", table+"Id"), cqt.ColAs("K", table+"K"), cqt.Col(val)}}
	}
	env := &exec.Env{Catalog: cat, Store: exec.RingFromState(ss, 4)}
	for _, kind := range []cqt.JoinKind{cqt.Inner, cqt.LeftOuter, cqt.FullOuter} {
		// The two-column key names K twice, so it must match exactly what
		// the one-column key does.
		for _, on := range [][][2]string{{{"LK", "RK"}}, {{"LK", "RK"}, {"LK", "RK"}}} {
			q := cqt.Join{Kind: kind, L: side("L", "A"), R: side("R", "B"), On: on}
			want, err := cqt.Eval(&cqt.Env{Catalog: cat, Store: ss}, q)
			if err != nil {
				t.Fatal(err)
			}
			it, err := exec.Open(context.Background(), env, q, exec.Options{BatchSize: 3})
			if err != nil {
				t.Fatal(err)
			}
			got, err := exec.Collect(it)
			if err != nil {
				t.Fatal(err)
			}
			equalMultisets(t, kind.String(), canonicalRows(want.Rows), canonicalRows(got.Rows))
		}
	}
}
