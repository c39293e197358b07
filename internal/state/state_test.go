package state

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"github.com/ormkit/incmap/internal/cond"
)

func TestRowCanonicalDeterministic(t *testing.T) {
	r := Row{"b": cond.Int(2), "a": cond.String("x"), "c": cond.Bool(true)}
	want := "a='x',b=2,c=true"
	if got := r.Canonical(); got != want {
		t.Errorf("Canonical = %q, want %q", got, want)
	}
	if got := r.Clone().Canonical(); got != want {
		t.Errorf("clone changed canonical form: %q", got)
	}
}

// fmtCanonical is Row.Canonical's reference rendering: the fmt-based
// formatting the fast path must reproduce byte for byte.
func fmtCanonical(r Row) string {
	keys := make([]string, 0, len(r))
	for k := range r {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%s", k, r[k])
	}
	return b.String()
}

// TestRowCanonicalMatchesFmt pins Canonical (and AppendCanonical onto a
// non-empty prefix) to the fmt rendering on random rows covering every
// value kind, NULL (an out-of-range kind), NaN, ±Inf, negative zero,
// extreme integers and strings holding the separators.
func TestRowCanonicalMatchesFmt(t *testing.T) {
	specials := []cond.Value{
		cond.Value{K: cond.Kind(-1)}, cond.Value{K: cond.Kind(99)},
		cond.Float(math.NaN()), cond.Float(math.Inf(1)), cond.Float(math.Inf(-1)),
		cond.Float(math.Copysign(0, -1)), cond.Float(0), cond.Float(1e21), cond.Float(1e-7), cond.Float(0.1),
		cond.Int(math.MinInt64), cond.Int(math.MaxInt64), cond.Int(0), cond.Int(-1),
		cond.Bool(true), cond.Bool(false),
		cond.String(""), cond.String("a=b"), cond.String("x,y"), cond.String("it's"), cond.String("'"),
		cond.String("k=v,k2='w'"), cond.String("ünï\x00"),
	}
	rng := rand.New(rand.NewSource(1))
	value := func() cond.Value {
		switch rng.Intn(6) {
		case 0:
			return specials[rng.Intn(len(specials))]
		case 1:
			return cond.Int(rng.Int63() - rng.Int63())
		case 2:
			return cond.Float(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20)))
		case 3:
			return cond.Bool(rng.Intn(2) == 0)
		default:
			b := make([]byte, rng.Intn(12))
			for i := range b {
				b[i] = "ab=,' \\x"[rng.Intn(8)]
			}
			return cond.String(string(b))
		}
	}
	for i := 0; i < 2000; i++ {
		r := Row{}
		for n := rng.Intn(24); n > 0; n-- {
			r[fmt.Sprintf("c%d", rng.Intn(40))] = value()
		}
		want := fmtCanonical(r)
		if got := r.Canonical(); got != want {
			t.Fatalf("Canonical = %q, want %q", got, want)
		}
		if got := string(r.AppendCanonical([]byte("p|"))); got != "p|"+want {
			t.Fatalf("AppendCanonical = %q, want %q", got, "p|"+want)
		}
	}
	for _, v := range specials {
		if got, want := (Row{"k": v}).Canonical(), fmtCanonical(Row{"k": v}); got != want {
			t.Errorf("Canonical(%#v) = %q, want %q", v, got, want)
		}
	}
}

func TestRowCloneIndependent(t *testing.T) {
	r := Row{"a": cond.Int(1)}
	c := r.Clone()
	c["a"] = cond.Int(2)
	if r["a"].IntVal() != 1 {
		t.Errorf("clone not independent")
	}
}

func TestEqualRowsMultiset(t *testing.T) {
	a := []Row{{"x": cond.Int(1)}, {"x": cond.Int(2)}, {"x": cond.Int(1)}}
	b := []Row{{"x": cond.Int(2)}, {"x": cond.Int(1)}, {"x": cond.Int(1)}}
	if !EqualRows(a, b) {
		t.Errorf("permuted multisets must be equal")
	}
	c := []Row{{"x": cond.Int(2)}, {"x": cond.Int(2)}, {"x": cond.Int(1)}}
	if EqualRows(a, c) {
		t.Errorf("different multiplicities must differ")
	}
	if EqualRows(a, a[:2]) {
		t.Errorf("different lengths must differ")
	}
}

func TestEqualClientStates(t *testing.T) {
	mk := func() *ClientState {
		cs := NewClientState()
		cs.Insert("S", &Entity{Type: "T", Attrs: Row{"Id": cond.Int(1)}})
		cs.Insert("S", &Entity{Type: "U", Attrs: Row{"Id": cond.Int(2), "N": cond.String("n")}})
		cs.Relate("A", AssocPair{Ends: Row{"l": cond.Int(1), "r": cond.Int(2)}})
		return cs
	}
	a, b := mk(), mk()
	if !EqualClient(a, b) {
		t.Fatalf("identical states differ:\n%s", Diff(a, b))
	}
	b.Entities["S"][0].Attrs["Id"] = cond.Int(9)
	if EqualClient(a, b) {
		t.Fatalf("modified state equal")
	}
	if Diff(a, b) == "" {
		t.Fatalf("Diff empty for unequal states")
	}
}

func TestEqualClientEmptySetIrrelevant(t *testing.T) {
	a := NewClientState()
	b := NewClientState()
	b.Entities["S"] = nil
	b.Assocs["A"] = nil
	if !EqualClient(a, b) {
		t.Errorf("empty collections must not matter")
	}
}

func TestCloneDeep(t *testing.T) {
	cs := NewClientState()
	cs.Insert("S", &Entity{Type: "T", Attrs: Row{"Id": cond.Int(1)}})
	cs.Relate("A", AssocPair{Ends: Row{"l": cond.Int(1)}})
	cp := cs.Clone()
	cp.Entities["S"][0].Attrs["Id"] = cond.Int(5)
	cp.Assocs["A"][0].Ends["l"] = cond.Int(5)
	if cs.Entities["S"][0].Attrs["Id"].IntVal() != 1 {
		t.Errorf("entity clone not deep")
	}
	if cs.Assocs["A"][0].Ends["l"].IntVal() != 1 {
		t.Errorf("assoc clone not deep")
	}

	ss := NewStoreState()
	ss.InsertRow("T", Row{"a": cond.Int(1)})
	sp := ss.Clone()
	sp.Tables["T"][0]["a"] = cond.Int(9)
	if ss.Tables["T"][0]["a"].IntVal() != 1 {
		t.Errorf("store clone not deep")
	}
}

func TestInstances(t *testing.T) {
	e := &Entity{Type: "Employee", Attrs: Row{"Id": cond.Int(2)}}
	ei := EntityInstance{E: e}
	if ei.InstanceType("") != "Employee" || ei.InstanceType("x") != "" {
		t.Errorf("entity instance types wrong")
	}
	if v, ok := ei.Lookup("Id"); !ok || v.IntVal() != 2 {
		t.Errorf("entity lookup wrong")
	}
	if _, ok := ei.Lookup("Nope"); ok {
		t.Errorf("missing attribute should be NULL")
	}
	ri := RowInstance{R: Row{"c": cond.String("v")}}
	if ri.InstanceType("") != "" {
		t.Errorf("rows are untyped")
	}
	if v, ok := ri.Lookup("c"); !ok || v.Str() != "v" {
		t.Errorf("row lookup wrong")
	}
}

// TestEqualRowsSymmetric is a property test: multiset equality must be
// symmetric and reflexive under permutation.
func TestEqualRowsSymmetric(t *testing.T) {
	f := func(xs []int8) bool {
		a := make([]Row, len(xs))
		b := make([]Row, len(xs))
		for i, x := range xs {
			a[i] = Row{"v": cond.Int(int64(x))}
			b[len(xs)-1-i] = Row{"v": cond.Int(int64(x))}
		}
		return EqualRows(a, b) && EqualRows(b, a) && EqualRows(a, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
