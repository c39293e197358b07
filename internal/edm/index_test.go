package edm

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/ormkit/incmap/internal/cond"
)

// The brute-force oracle below answers every indexed query by walking the
// raw Base links and declaration lists, as the schema did before it had an
// index.

func bfIsSubtype(s *Schema, sub, typ string) bool {
	for seen := 0; seen <= len(s.order); seen++ {
		n, ok := s.types[sub]
		if !ok {
			return false
		}
		if sub == typ {
			return true
		}
		if n.t.Base == "" {
			return false
		}
		sub = n.t.Base
	}
	return false
}

func bfDescendants(s *Schema, typ string) []string {
	var out []string
	for _, n := range s.order {
		if n != typ && bfIsSubtype(s, n, typ) {
			out = append(out, n)
		}
	}
	return out
}

func bfConcreteIn(s *Schema, typ string) []string {
	var out []string
	for _, n := range s.order {
		if !s.types[n].t.Abstract && bfIsSubtype(s, n, typ) {
			out = append(out, n)
		}
	}
	return out
}

func bfChildren(s *Schema, typ string) []string {
	var out []string
	for _, n := range s.order {
		if s.types[n].t.Base == typ {
			out = append(out, n)
		}
	}
	return out
}

func bfRootOf(s *Schema, typ string) string {
	n, ok := s.types[typ]
	if !ok {
		return ""
	}
	for n.t.Base != "" {
		n = s.types[n.t.Base]
	}
	return n.t.Name
}

func bfSetFor(s *Schema, typ string) *EntitySet {
	root := bfRootOf(s, typ)
	for _, e := range s.sets {
		if root != "" && e.Type == root {
			return e
		}
	}
	return nil
}

func bfSet(s *Schema, name string) *EntitySet {
	for _, e := range s.sets {
		if e.Name == name {
			return e
		}
	}
	return nil
}

func bfAssociation(s *Schema, name string) *Association {
	for _, a := range s.assocs {
		if a.Name == name {
			return a
		}
	}
	return nil
}

func bfAttr(s *Schema, typ, attr string) (Attribute, bool) {
	for _, a := range s.AllAttrs(typ) {
		if a.Name == attr {
			return a, true
		}
	}
	return Attribute{}, false
}

// checkAgainstOracle compares every indexed query of s with the oracle
// run on o, an independently built schema that received the same
// mutations, over all type, set, association and attribute names used.
func checkAgainstOracle(t *testing.T, step int, s, o *Schema, types, sets, assocs, attrs []string) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d: "+format, append([]any{step}, args...)...)
	}
	for _, a := range types {
		for _, b := range types {
			if got, want := s.IsSubtype(a, b), bfIsSubtype(o, a, b); got != want {
				fail("IsSubtype(%s, %s) = %v, want %v", a, b, got, want)
			}
		}
		if got, want := s.ConcreteIn(a), bfConcreteIn(o, a); !reflect.DeepEqual(got, want) {
			fail("ConcreteIn(%s) = %v, want %v", a, got, want)
		}
		if got, want := s.Descendants(a), bfDescendants(o, a); !reflect.DeepEqual(got, want) {
			fail("Descendants(%s) = %v, want %v", a, got, want)
		}
		if got, want := s.Children(a), bfChildren(o, a); !reflect.DeepEqual(got, want) {
			fail("Children(%s) = %v, want %v", a, got, want)
		}
		if got, want := s.RootOf(a), bfRootOf(o, a); got != want {
			fail("RootOf(%s) = %q, want %q", a, got, want)
		}
		if got, want := s.SetFor(a), bfSetFor(o, a); !reflect.DeepEqual(got, want) {
			fail("SetFor(%s) = %v, want %v", a, got, want)
		}
		for _, at := range attrs {
			got, gok := s.Attr(a, at)
			want, wok := bfAttr(o, a, at)
			if gok != wok || !reflect.DeepEqual(got, want) {
				fail("Attr(%s, %s) = %v %v, want %v %v", a, at, got, gok, want, wok)
			}
			if s.HasAttr(a, at) != wok {
				fail("HasAttr(%s, %s) = %v, want %v", a, at, !wok, wok)
			}
		}
	}
	for _, n := range sets {
		if got, want := s.Set(n), bfSet(o, n); !reflect.DeepEqual(got, want) {
			fail("Set(%s) = %v, want %v", n, got, want)
		}
	}
	for _, n := range assocs {
		if got, want := s.Association(n), bfAssociation(o, n); !reflect.DeepEqual(got, want) {
			fail("Association(%s) = %v, want %v", n, got, want)
		}
	}
}

// schemaOp is one random mutation with every choice already made, so it
// can be applied identically to a schema and to its shadow.
type schemaOp struct {
	name  string
	apply func(*Schema) error
}

// randomSchemaGen makes random mutations, remembering every name it ever
// used so removed names are queried too.
type randomSchemaGen struct {
	rng                         *rand.Rand
	types, sets, assocs, attrs  []string
	nType, nSet, nAssoc, nAttrs int
}

func (g *randomSchemaGen) attr() Attribute {
	if len(g.attrs) > 0 && g.rng.Intn(6) == 0 {
		// Reuse a name: usually a collision the mutator must refuse.
		return Attribute{Name: g.attrs[g.rng.Intn(len(g.attrs))], Type: cond.KindString, Nullable: true}
	}
	g.nAttrs++
	name := fmt.Sprintf("a%d", g.nAttrs)
	g.attrs = append(g.attrs, name)
	kinds := []cond.Kind{cond.KindInt, cond.KindString, cond.KindBool}
	return Attribute{Name: name, Type: kinds[g.rng.Intn(len(kinds))], Nullable: g.rng.Intn(2) == 0}
}

func (g *randomSchemaGen) pick(names []string) string {
	if len(names) == 0 || g.rng.Intn(12) == 0 {
		return "Ghost"
	}
	return names[g.rng.Intn(len(names))]
}

func (g *randomSchemaGen) fresh(list *[]string, n *int, prefix string) string {
	if len(*list) > 0 && g.rng.Intn(8) == 0 {
		return (*list)[g.rng.Intn(len(*list))] // usually a duplicate
	}
	*n++
	name := fmt.Sprintf("%s%d", prefix, *n)
	*list = append(*list, name)
	return name
}

func (g *randomSchemaGen) addRoot() (schemaOp, string) {
	g.nType++
	name := fmt.Sprintf("R%d", g.nType)
	g.types = append(g.types, name)
	key := g.attr()
	key.Nullable = false
	t := EntityType{Name: name, Abstract: g.rng.Intn(4) == 0, Attrs: []Attribute{key, g.attr()}, Key: []string{key.Name}}
	set := ""
	if g.rng.Intn(4) != 0 {
		set = g.fresh(&g.sets, &g.nSet, "S")
	}
	return schemaOp{"AddType root", func(s *Schema) error {
		if err := s.AddType(t); err != nil || set == "" {
			return err
		}
		return s.AddSet(EntitySet{Name: set, Type: name})
	}}, name
}

func (g *randomSchemaGen) addDerived(base string) (schemaOp, string) {
	g.nType++
	name := fmt.Sprintf("T%d", g.nType)
	g.types = append(g.types, name)
	t := EntityType{Name: name, Base: base, Abstract: g.rng.Intn(4) == 0, Attrs: []Attribute{g.attr()}}
	return schemaOp{"AddType derived", func(s *Schema) error { return s.AddType(t) }}, name
}

// next draws one random mutation of s.
func (g *randomSchemaGen) next(s *Schema) schemaOp {
	switch g.rng.Intn(10) {
	case 0:
		op, _ := g.addRoot()
		return op
	case 1, 2:
		op, _ := g.addDerived(g.pick(g.types))
		return op
	case 3:
		n := g.pick(g.types)
		return schemaOp{"RemoveType", func(s *Schema) error { return s.RemoveType(n) }}
	case 4:
		var roots []string
		for _, n := range s.order {
			if s.Parent(n) == "" {
				roots = append(roots, n)
			}
		}
		n, base := g.pick(roots), g.pick(g.types)
		return schemaOp{"RerootType", func(s *Schema) error { return s.RerootType(n, base) }}
	case 5:
		n, a := g.pick(g.types), g.attr()
		return schemaOp{"AddAttr", func(s *Schema) error { return s.AddAttr(n, a) }}
	case 6:
		set := EntitySet{Name: g.fresh(&g.sets, &g.nSet, "S"), Type: g.pick(g.types)}
		return schemaOp{"AddSet", func(s *Schema) error { return s.AddSet(set) }}
	case 7:
		a := Association{Name: g.fresh(&g.assocs, &g.nAssoc, "A"),
			End1: End{Type: g.pick(g.types), Mult: Many}, End2: End{Type: g.pick(g.types), Mult: ZeroOne}}
		return schemaOp{"AddAssociation", func(s *Schema) error { return s.AddAssociation(a) }}
	case 8:
		n := g.pick(g.assocs)
		return schemaOp{"RemoveAssociation", func(s *Schema) error { return s.RemoveAssociation(n) }}
	default:
		n := g.pick(g.types)
		return schemaOp{"mutableType", func(s *Schema) error {
			if s.Type(n) == nil {
				return fmt.Errorf("no type %q", n)
			}
			s.mutableType(n)
			return nil
		}}
	}
}

// twin is a schema under test and its shadow: an independently built
// schema (never cloned from a live one) that receives the same mutations
// and serves the brute-force oracle, so sharing between clones cannot
// hide in the expected answers.
type twin struct{ s, shadow *Schema }

// apply runs op on both schemas and reports whether it took effect.
func (tw twin) apply(t *testing.T, op schemaOp) bool {
	t.Helper()
	err, werr := op.apply(tw.s), op.apply(tw.shadow)
	if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("%s: schema says %v, shadow says %v", op.name, err, werr)
	}
	return err == nil
}

// build makes several roots, each the top of a hierarchy at least four
// levels deep with some branching, plus a few associations.
func (g *randomSchemaGen) build(t *testing.T) twin {
	tw := twin{NewSchema(), NewSchema()}
	for r := 0; r < 3+g.rng.Intn(3); r++ {
		op, root := g.addRoot()
		for !tw.apply(t, op) {
			op, root = g.addRoot()
		}
		members := []string{root}
		for d := 0; d < 4; d++ {
			if op, n := g.addDerived(members[len(members)-1]); tw.apply(t, op) {
				members = append(members, n)
			}
		}
		for k := 0; k < g.rng.Intn(5); k++ {
			if op, n := g.addDerived(members[g.rng.Intn(len(members))]); tw.apply(t, op) {
				members = append(members, n)
			}
		}
	}
	for k := 0; k < 4; k++ {
		tw.apply(t, g.next(tw.s))
	}
	return tw
}

// TestIndexMatchesBruteForce applies random mutator sequences to random
// hierarchies, cloning between steps and mutating either side afterwards,
// and checks every schema alive after each step against the brute-force
// walk of the parent links of its shadow.
func TestIndexMatchesBruteForce(t *testing.T) {
	applied := map[string]int{}
	for seed := int64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			g := &randomSchemaGen{rng: rand.New(rand.NewSource(seed))}
			live := []twin{g.build(t)}
			for step := 0; step < 60; step++ {
				src := live[g.rng.Intn(len(live))]
				switch r := g.rng.Intn(5); {
				case r == 0 && len(live) < 6:
					live = append(live, twin{src.s.Clone(), src.shadow.DeepClone()})
				case r == 1 && len(live) < 6:
					live = append(live, twin{src.s.DeepClone(), src.shadow.DeepClone()})
				}
				// Mutate either the source or the fresh clone.
				tw := live[g.rng.Intn(len(live))]
				if op := g.next(tw.s); tw.apply(t, op) {
					applied[op.name]++
				}
				// Attribute lookups are checked on a sample of the names.
				attrs := []string{"Ghost"}
				for k := 0; k < 12 && len(g.attrs) > 0; k++ {
					attrs = append(attrs, g.attrs[g.rng.Intn(len(g.attrs))])
				}
				for _, tw := range live {
					checkAgainstOracle(t, step, tw.s, tw.shadow, append(g.types, "Ghost"), append(g.sets, "Ghost"), append(g.assocs, "Ghost"), attrs)
				}
			}
		})
	}
	for _, op := range []string{"AddType root", "AddType derived", "RemoveType", "RerootType", "AddAttr",
		"AddSet", "AddAssociation", "RemoveAssociation", "mutableType"} {
		if applied[op] == 0 {
			t.Errorf("no random step applied %s", op)
		}
	}
	t.Logf("mutations applied: %v", applied)
}

// chainSchema builds a chain-n client schema — n standalone types, each with
// its own set, consecutive types related by an association — plus one
// five-level hierarchy, without building any index.
func chainSchema(tb testing.TB, n int) *Schema {
	tb.Helper()
	s := NewSchema()
	must := func(err error) {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
	}
	id := []Attribute{{Name: "Id", Type: cond.KindInt}, {Name: "Att", Type: cond.KindString, Nullable: true}}
	for i := 1; i <= n; i++ {
		must(s.AddType(EntityType{Name: fmt.Sprintf("Entity%d", i), Attrs: id, Key: []string{"Id"}}))
		must(s.AddSet(EntitySet{Name: fmt.Sprintf("Entity%dSet", i), Type: fmt.Sprintf("Entity%d", i)}))
		if i > 1 {
			must(s.AddAssociation(Association{Name: fmt.Sprintf("Link%d", i),
				End1: End{Type: fmt.Sprintf("Entity%d", i-1), Mult: One}, End2: End{Type: fmt.Sprintf("Entity%d", i), Mult: Many}}))
		}
	}
	must(s.AddType(EntityType{Name: "Shape", Abstract: true, Attrs: id, Key: []string{"Id"}}))
	must(s.AddSet(EntitySet{Name: "Shapes", Type: "Shape"}))
	base := "Shape"
	for d := 1; d <= 4; d++ {
		for b := 0; b < 2; b++ {
			name := fmt.Sprintf("Shape%d_%d", d, b)
			must(s.AddType(EntityType{Name: name, Base: base, Attrs: []Attribute{{Name: "P" + name, Type: cond.KindInt, Nullable: true}}}))
		}
		base = fmt.Sprintf("Shape%d_0", d)
	}
	return s
}

// TestIndexConcurrentFirstUse has eight goroutines query a freshly built
// schema at once, so every index is first built under contention (run
// with -race).
func TestIndexConcurrentFirstUse(t *testing.T) {
	s := chainSchema(t, 300)
	names := append([]string(nil), s.order...)
	type want struct {
		concrete []string
		root     string
		set      *EntitySet
		named    *EntitySet   // Set(name + "Set")
		link     *Association // Association("Link" + number)
	}
	link := func(n string) string { return "Link" + strings.TrimPrefix(n, "Entity") }
	wants := make([]want, len(names))
	for i, n := range names {
		wants[i] = want{bfConcreteIn(s, n), bfRootOf(s, n), bfSetFor(s, n), bfSet(s, n+"Set"), bfAssociation(s, link(n))}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range names {
				i := (k*7 + w*37) % len(names)
				n, want := names[i], wants[i]
				if !reflect.DeepEqual(s.ConcreteIn(n), want.concrete) || s.RootOf(n) != want.root ||
					!s.IsSubtype(n, want.root) || s.SetFor(n) != want.set ||
					s.Set(n+"Set") != want.named || s.Association(link(n)) != want.link {
					errs <- fmt.Sprintf("worker %d: wrong answer for %s", w, n)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestValidateUsesRawLinks corrupts Base links behind the index's back and
// expects Validate to report them whether or not the index was built.
func TestValidateUsesRawLinks(t *testing.T) {
	for _, built := range []bool{false, true} {
		for _, tc := range []struct {
			name, base, want string
		}{
			{"Person", "Customer", "inheritance cycle"},
			{"Employee", "Ghost", "unknown type"},
		} {
			s := paperSchema(t)
			if built {
				s.ConcreteIn("Person")
				s.IsSubtype("Customer", "Person")
			}
			s.mutableType(tc.name).Base = tc.base
			err := s.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("built=%v, %s.Base=%s: Validate() = %v, want %q", built, tc.name, tc.base, err, tc.want)
			}
		}
	}
}
