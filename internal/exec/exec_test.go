package exec_test

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"

	"github.com/ormkit/incmap/internal/compiler"
	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/exec"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/orm"
	"github.com/ormkit/incmap/internal/state"
	"github.com/ormkit/incmap/internal/workload"
)

// compileWL compiles a workload mapping and returns it with its views and
// a random client state.
func compileWL(t *testing.T, m *frag.Mapping, seed uint32) (*frag.Views, *state.ClientState, *state.StoreState) {
	t.Helper()
	c := &compiler.Compiler{}
	v, err := c.CompileCtx(context.Background(), m)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cs := orm.RandomState(m, seed, 4)
	ss, err := orm.Materialize(m, v, cs)
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	return v, cs, ss
}

// canonicalRows renders rows as a sorted multiset.
func canonicalRows(rows []state.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.Canonical()
	}
	sort.Strings(out)
	return out
}

// canonicalEnts renders entities as a sorted multiset.
func canonicalEnts(es []*state.Entity) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.Canonical()
	}
	sort.Strings(out)
	return out
}

func equalMultisets(t *testing.T, what string, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: materializing path has %d rows, streaming has %d", what, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: multisets diverge at %d:\n  materialize: %s\n  stream:      %s", what, i, want[i], got[i])
		}
	}
}

// checkAllViews streams every compiled view of the mapping and compares
// each against the materializing evaluator, over both a RingStore and a
// MapStore and across several batch sizes.
func checkAllViews(t *testing.T, m *frag.Mapping, v *frag.Views, cs *state.ClientState, ss *state.StoreState, batch int) {
	t.Helper()
	ctx := context.Background()
	opts := exec.Options{BatchSize: batch}
	matEnv := &cqt.Env{Catalog: m.Catalog(), Client: cs, Store: ss}
	stores := map[string]exec.TableStore{
		"ring": exec.RingFromState(ss, 3),
		"map":  exec.NewMapStore(ss),
	}

	for storeName, ts := range stores {
		execEnv := &exec.Env{Catalog: m.Catalog(), Store: ts, Client: cs}

		for ty, view := range v.Query {
			what := fmt.Sprintf("query view %s (%s, batch %d)", ty, storeName, batch)
			res, err := cqt.Eval(matEnv, view.Q)
			if err != nil {
				t.Fatalf("%s: materializing eval: %v", what, err)
			}
			it, err := exec.Open(ctx, execEnv, view.Q, opts)
			if err != nil {
				t.Fatalf("%s: open: %v", what, err)
			}
			got, err := exec.Collect(it)
			if err != nil {
				t.Fatalf("%s: collect: %v", what, err)
			}
			equalMultisets(t, what, canonicalRows(res.Rows), canonicalRows(got.Rows))

			wantEnts, err := view.ConstructEntities(matEnv)
			if err != nil {
				t.Fatalf("%s: construct: %v", what, err)
			}
			eit, err := exec.OpenView(ctx, execEnv, view, exec.Strict, opts)
			if err != nil {
				t.Fatalf("%s: open view: %v", what, err)
			}
			gotEnts, err := exec.CollectEntities(eit)
			if err != nil {
				t.Fatalf("%s: collect entities: %v", what, err)
			}
			equalMultisets(t, what+" entities", canonicalEnts(wantEnts), canonicalEnts(gotEnts))
		}

		for table, view := range v.Update {
			what := fmt.Sprintf("update view %s (%s, batch %d)", table, storeName, batch)
			res, err := cqt.Eval(matEnv, view.Q)
			if err != nil {
				t.Fatalf("%s: materializing eval: %v", what, err)
			}
			it, err := exec.Open(ctx, execEnv, view.Q, opts)
			if err != nil {
				t.Fatalf("%s: open: %v", what, err)
			}
			got, err := exec.Collect(it)
			if err != nil {
				t.Fatalf("%s: collect: %v", what, err)
			}
			equalMultisets(t, what, canonicalRows(res.Rows), canonicalRows(got.Rows))
		}

		for assoc, view := range v.Assoc {
			what := fmt.Sprintf("assoc view %s (%s, batch %d)", assoc, storeName, batch)
			res, err := cqt.Eval(matEnv, view.Q)
			if err != nil {
				t.Fatalf("%s: materializing eval: %v", what, err)
			}
			it, err := exec.Open(ctx, execEnv, view.Q, opts)
			if err != nil {
				t.Fatalf("%s: open: %v", what, err)
			}
			got, err := exec.Collect(it)
			if err != nil {
				t.Fatalf("%s: collect: %v", what, err)
			}
			equalMultisets(t, what, canonicalRows(res.Rows), canonicalRows(got.Rows))
		}
	}
}

func TestStreamMatchesMaterialize(t *testing.T) {
	workloads := []struct {
		name string
		m    *frag.Mapping
	}{
		{"chain-4", workload.Chain(4)},
		{"hubrim-tph", workload.HubRim(workload.HubRimOptions{N: 2, M: 2, TPH: true})},
		{"hubrim-tpt", workload.HubRim(workload.HubRimOptions{N: 2, M: 2})},
		{"customer", workload.Customer(workload.DefaultCustomerOptions())},
		{"paper-initial", workload.PaperInitial()},
		{"paper-full", workload.PaperFull()},
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			v, cs, ss := compileWL(t, wl.m, 42)
			for _, batch := range []int{1, 3, 1024} {
				checkAllViews(t, wl.m, v, cs, ss, batch)
			}
		})
	}
}

// TestPaperClientState pins the paper's §2.1 worked example through the
// streaming path.
func TestPaperClientState(t *testing.T) {
	m := workload.PaperFull()
	c := &compiler.Compiler{}
	v, err := c.CompileCtx(context.Background(), m)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cs := workload.PaperClientState()
	ss, err := orm.Materialize(m, v, cs)
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	checkAllViews(t, m, v, cs, ss, 2)
}

func TestRingStoreSegmentsAndSnapshots(t *testing.T) {
	rs := exec.NewRingStore(2)
	mkRow := func(i int) state.Row {
		return state.Row{"Id": cond.Int(int64(i))}
	}
	for i := 0; i < 5; i++ {
		rs.Append("T", mkRow(i))
	}
	if rs.Len("T") != 5 {
		t.Fatalf("Len = %d, want 5", rs.Len("T"))
	}
	it, err := rs.Scan(context.Background(), "T", 2)
	if err != nil {
		t.Fatal(err)
	}
	// Rows appended after the scan opened are invisible to it.
	rs.Append("T", mkRow(5), mkRow(6))
	n := 0
	for {
		rows, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n += len(rows)
	}
	if n != 5 {
		t.Fatalf("scan saw %d rows, want the 5-row snapshot", n)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if rs.Len("T") != 7 {
		t.Fatalf("Len = %d after appends, want 7", rs.Len("T"))
	}
	// Unknown tables scan empty, not error.
	it2, err := rs.Scan(context.Background(), "missing", 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := it2.Next(); ok {
		t.Fatal("scan of unknown table yielded rows")
	}
	_ = it2.Close()
}

// TestRingStoreGrowthKeepsPrefixes appends in uneven batches to a table
// whose first segment grows by doubling while scans run: every scan must
// see exactly rows 0..n-1 in order, including scans opened before a
// growth step and read after it.
func TestRingStoreGrowthKeepsPrefixes(t *testing.T) {
	const segCap, total = 16, 300
	rs := exec.NewRingStore(segCap)
	scanPrefix := func(it exec.RowIter) (int, error) {
		n := 0
		for {
			rows, ok, err := it.Next()
			if err != nil {
				return n, err
			}
			if !ok {
				return n, it.Close()
			}
			for _, row := range rows {
				if got := row["I"].IntVal(); got != int64(n) {
					return n, fmt.Errorf("row %d holds I=%d", n, got)
				}
				n++
			}
		}
	}
	// A scan opened on the one-row first segment, drained after the
	// segment has grown several times.
	rs.Append("T", state.Row{"I": cond.Int(0)})
	early, err := rs.Scan(context.Background(), "T", 4)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i < total; {
			var batch []state.Row
			for k := 0; k < 1+i%5 && i < total; k++ {
				batch = append(batch, state.Row{"I": cond.Int(int64(i))})
				i++
			}
			rs.Append("T", batch...)
		}
	}()
	var sg sync.WaitGroup
	for r := 0; r < 3; r++ {
		sg.Add(1)
		go func() {
			defer sg.Done()
			last := 0
			for last < total {
				it, err := rs.Scan(context.Background(), "T", 3)
				if err != nil {
					t.Error(err)
					return
				}
				n, err := scanPrefix(it)
				if err != nil {
					t.Error(err)
					return
				}
				if n < last {
					t.Errorf("scan saw %d rows after an earlier scan saw %d", n, last)
					return
				}
				last = n
			}
		}()
	}
	<-done
	sg.Wait()
	if n, err := scanPrefix(early); err != nil || n != 1 {
		t.Fatalf("early scan saw %d rows (%v), want its 1-row snapshot", n, err)
	}
	if got := rs.Len("T"); got != total {
		t.Fatalf("Len = %d, want %d", got, total)
	}
}

func TestRingStoreConcurrentAppendScan(t *testing.T) {
	rs := exec.NewRingStore(8)
	mkRow := func(g, i int) state.Row {
		return state.Row{"G": cond.Int(int64(g)), "I": cond.Int(int64(i))}
	}
	var wg sync.WaitGroup
	const writers, perWriter = 4, 200
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rs.Append("T", mkRow(g, i))
			}
		}(g)
	}
	// Concurrent scans: every observed count must be a valid prefix and
	// every row intact.
	var sg sync.WaitGroup
	for r := 0; r < 4; r++ {
		sg.Add(1)
		go func() {
			defer sg.Done()
			for k := 0; k < 20; k++ {
				it, err := rs.Scan(context.Background(), "T", 16)
				if err != nil {
					t.Error(err)
					return
				}
				n := 0
				for {
					rows, ok, err := it.Next()
					if err != nil {
						t.Error(err)
						return
					}
					if !ok {
						break
					}
					for _, row := range rows {
						if _, ok := row["G"]; !ok {
							t.Error("scan observed a torn row")
							return
						}
					}
					n += len(rows)
				}
				_ = it.Close()
				if n > writers*perWriter {
					t.Errorf("scan observed %d rows, more than ever appended", n)
					return
				}
			}
		}()
	}
	wg.Wait()
	sg.Wait()
	if got := rs.Len("T"); got != writers*perWriter {
		t.Fatalf("Len = %d, want %d", got, writers*perWriter)
	}
}

// TestConcurrentIteratorsPooledBatches runs every view of a workload from
// several goroutines at once. Operators take their batch memory from a
// shared pool and return it at Close, so a slab handed to two live
// iterators would show up here as a race or a diverging result.
func TestConcurrentIteratorsPooledBatches(t *testing.T) {
	m := workload.PaperFull()
	v, cs, ss := compileWL(t, m, 19)
	env := &exec.Env{Catalog: m.Catalog(), Store: exec.RingFromState(ss, 3), Client: cs}
	exprs := allViewExprs(t, m, v)
	run := func(batch int) ([][]string, error) {
		out := make([][]string, len(exprs))
		for i, q := range exprs {
			it, err := exec.Open(context.Background(), env, q, exec.Options{BatchSize: batch})
			if err != nil {
				return nil, err
			}
			res, err := exec.Collect(it)
			if err != nil {
				return nil, err
			}
			out[i] = canonicalRows(res.Rows)
		}
		return out, nil
	}
	want, err := run(0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(batch int) {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				got, err := run(batch)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range want {
					if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
						t.Errorf("batch %d: view %d diverged under concurrency", batch, i)
						return
					}
				}
			}
		}(1 + g)
	}
	wg.Wait()
}
