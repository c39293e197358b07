package cond

import (
	"sort"
	"strings"
)

// Assignment maps atoms to truth values. A full assignment determines the
// truth of every condition built from those atoms.
type Assignment map[Atom]bool

// Eval evaluates the expression under the (full) assignment. Atoms missing
// from the assignment evaluate to false.
func (a Assignment) Eval(x Expr) bool {
	v, known := evalPartial(x, a)
	return known && v
}

// evalPartial performs three-valued evaluation of x under a partial
// assignment. known reports whether the truth value is already determined.
func evalPartial(x Expr, asg Assignment) (val, known bool) {
	switch v := x.(type) {
	case True:
		return true, true
	case False:
		return false, true
	case *Not:
		iv, ik := evalPartial(v.X, asg)
		return !iv, ik
	case *And:
		all := true
		for _, c := range v.Xs {
			cv, ck := evalPartial(c, asg)
			if ck && !cv {
				return false, true
			}
			if !ck {
				all = false
			}
		}
		return true, all
	case *Or:
		none := true
		for _, c := range v.Xs {
			cv, ck := evalPartial(c, asg)
			if ck && cv {
				return true, true
			}
			if !ck {
				none = false
			}
		}
		return false, none
	default:
		a, ok := atomOf(x)
		if !ok {
			return false, true
		}
		if b, assigned := asg[a]; assigned {
			return b, true
		}
		return false, false
	}
}

// Satisfiable reports whether some theory-consistent instance satisfies x.
// The check is a CDCL search (cdcl.go) over the Tseitin-encoded condition
// with theory-consistency propagation; it is exponential in the number of
// atoms in the worst case, which is inherent (the underlying problem is
// NP-hard), but clause learning and non-chronological backjumping prune
// the repeated near-identical subproblems that containment checking
// generates in practice.
func Satisfiable(t Theory, x Expr) bool {
	return satisfiableCDCL(t, x, Atoms(x), nil, nil)
}

// satisfiableNaive is the historical DPLL tree search, retained as the
// differential-testing oracle for the CDCL solver.
func satisfiableNaive(t Theory, x Expr) bool {
	s := &solver{t: t, atoms: Atoms(x), asg: Assignment{}}
	s.buildIndex()
	return s.search(0, x)
}

// Implies reports whether every theory-consistent instance satisfying a
// also satisfies b.
func Implies(t Theory, a, b Expr) bool {
	return !Satisfiable(t, NewAnd(a, NewNot(b)))
}

// Tautology reports whether every theory-consistent instance satisfies x.
// This implements the coverage check of §3.3 of the paper (e.g. that
// age >= 18 OR age < 18 is a tautology over non-null integer ages, and that
// gender = 'M' OR gender = 'F' is one over the two-valued gender domain).
func Tautology(t Theory, x Expr) bool { return !Satisfiable(t, NewNot(x)) }

// Equivalent reports whether a and b agree on every theory-consistent
// instance.
func Equivalent(t Theory, a, b Expr) bool { return Implies(t, a, b) && Implies(t, b, a) }

// Disjoint reports whether no theory-consistent instance satisfies both a
// and b.
func Disjoint(t Theory, a, b Expr) bool { return !Satisfiable(t, NewAnd(a, b)) }

// EnumerateAssignments visits every theory-consistent full assignment of the
// given atoms. It stops early when visit returns false and reports whether
// the enumeration ran to completion. The enumeration is exponential in
// len(atoms) by design: the full mapping compiler uses it for exhaustive
// roundtrip (cell) analysis, which is the source of the compilation-time
// blow-up the paper measures in Figure 4.
func EnumerateAssignments(t Theory, atoms []Atom, visit func(Assignment) bool) bool {
	e := newEnumEngine(t, atoms)
	e.asg = make(Assignment, len(atoms))
	return e.run(0, func([]int8) bool { return visit(e.asg) })
}

// EnumerateAllAssignments visits every full boolean assignment of the atoms
// with no theory pruning (2^len(atoms) visits). It exists for the
// cell-pruning ablation benchmark; use EnumerateAssignments otherwise.
func EnumerateAllAssignments(atoms []Atom, visit func(Assignment) bool) bool {
	asg := Assignment{}
	var rec func(i int) bool
	rec = func(i int) bool {
		if i >= len(atoms) {
			return visit(asg)
		}
		for _, val := range [2]bool{true, false} {
			asg[atoms[i]] = val
			if !rec(i + 1) {
				return false
			}
		}
		delete(asg, atoms[i])
		return true
	}
	return rec(0)
}

// EnumerateAllAssignmentsIndexed is EnumerateAllAssignments extended with
// a dense truth slice indexed like atoms (1 true, 0 false), valid only for
// the duration of the visit.
func EnumerateAllAssignmentsIndexed(atoms []Atom, visit func(Assignment, []int8) bool) bool {
	asg := Assignment{}
	vals := make([]int8, len(atoms))
	for i := range vals {
		vals[i] = -1
	}
	var rec func(i int) bool
	rec = func(i int) bool {
		if i >= len(atoms) {
			return visit(asg, vals)
		}
		for _, val := range [2]bool{true, false} {
			asg[atoms[i]] = val
			if val {
				vals[i] = 1
			} else {
				vals[i] = 0
			}
			if !rec(i + 1) {
				return false
			}
		}
		delete(asg, atoms[i])
		vals[i] = -1
		return true
	}
	return rec(0)
}

// ConsistentAssignment reports whether a full assignment admits a witness
// instance under the theory.
func ConsistentAssignment(t Theory, asg Assignment) bool {
	s := &solver{t: t, asg: asg}
	subjects := map[string]bool{}
	for a := range asg {
		subjects[a.subject()] = true
	}
	for subj := range subjects {
		if !s.subjectConsistent(subj) {
			return false
		}
	}
	return true
}

type solver struct {
	t     Theory
	atoms []Atom
	asg   Assignment

	// Lazily built indices over atoms, used to localize consistency checks
	// and avoid hashing large atom keys in the enumeration hot path.
	attrAtoms map[string][]int // attr -> indices of its null/cmp atoms
	typedSubj map[string]bool  // subject -> has type atoms or concrete types
	vals      []int8           // per-atom truth: -1 unassigned, 0 false, 1 true
	litsBuf   []attrLit        // scratch buffer for group literals
	cmpsBuf   []attrLit        // scratch buffer for comparison literals
	domCache  map[string]domEntry
	indexed   bool
}

// domEntry caches per-attribute theory lookups for the enumeration hot
// path.
type domEntry struct {
	dom      Domain
	known    bool
	nullable bool
}

func (s *solver) attrInfo(attr string) domEntry {
	if e, ok := s.domCache[attr]; ok {
		return e
	}
	if s.domCache == nil {
		s.domCache = map[string]domEntry{}
	}
	var e domEntry
	e.dom, e.known = s.t.Domain(attr)
	e.nullable = s.t.Nullable(attr)
	s.domCache[attr] = e
	return e
}

func (s *solver) buildIndex() {
	if s.indexed {
		return
	}
	s.indexed = true
	s.attrAtoms = map[string][]int{}
	s.typedSubj = map[string]bool{}
	s.vals = make([]int8, len(s.atoms))
	for i, a := range s.atoms {
		s.vals[i] = -1
		switch a.Kind {
		case AtomType:
			s.typedSubj[a.subject()] = true
		default:
			s.attrAtoms[a.Attr] = append(s.attrAtoms[a.Attr], i)
		}
	}
	// Seed values already present in the assignment (callers may start
	// from a partial assignment).
	for i, a := range s.atoms {
		if v, ok := s.asg[a]; ok {
			if v {
				s.vals[i] = 1
			} else {
				s.vals[i] = 0
			}
		}
	}
}

// subjectTyped reports whether consistency of the subject couples its
// attribute groups (through the choice of a concrete type).
func (s *solver) subjectTyped(subject string) bool {
	s.buildIndex()
	return s.typedSubj[subject] || len(s.t.ConcreteTypes(subject)) > 0
}

func (s *solver) search(i int, x Expr) bool {
	if v, known := evalPartial(x, s.asg); known {
		// The partial assignment is theory-consistent by construction, so a
		// witness exists for the assigned atoms; unassigned atoms take
		// whatever truth values the witness induces without affecting x.
		return v
	}
	if i >= len(s.atoms) {
		return false
	}
	a := s.atoms[i]
	for _, val := range [2]bool{true, false} {
		s.assign(i, a, val)
		if s.consistentForIdx(i) && s.search(i+1, x) {
			s.unassign(i, a)
			return true
		}
	}
	s.unassign(i, a)
	return false
}

func (s *solver) assign(i int, a Atom, val bool) {
	s.asg[a] = val
	if val {
		s.vals[i] = 1
	} else {
		s.vals[i] = 0
	}
}

func (s *solver) unassign(i int, a Atom) {
	delete(s.asg, a)
	s.vals[i] = -1
}

// consistentForIdx re-checks the consistency of the subject touched by the
// i-th atom under the current partial assignment. For untyped subjects the
// attribute groups are independent, so only the touched group needs
// re-checking — this keeps exhaustive cell enumeration at O(group) per
// search node, using int-indexed values and scratch buffers to stay off
// the allocator.
func (s *solver) consistentForIdx(i int) bool {
	a := s.atoms[i]
	subject := a.subject()
	if s.subjectTyped(subject) {
		return s.subjectConsistent(subject)
	}
	if a.Kind == AtomType {
		// Positive type literals are unsatisfiable on untyped subjects.
		return s.vals[i] != 1
	}
	lits := s.litsBuf[:0]
	for _, gi := range s.attrAtoms[a.Attr] {
		v := s.vals[gi]
		if v < 0 {
			continue
		}
		ga := s.atoms[gi]
		if ga.Kind == AtomNull {
			lits = append(lits, attrLit{null: true, pos: v == 1})
		} else {
			lits = append(lits, attrLit{op: ga.Op, val: ga.Val, pos: v == 1})
		}
	}
	s.litsBuf = lits
	return s.attrFeasible(a.Attr, lits, true)
}

func (a Atom) subject() string {
	if a.Kind == AtomType {
		return a.Var
	}
	if i := strings.IndexByte(a.Attr, '.'); i >= 0 {
		return a.Attr[:i]
	}
	return ""
}

// subjectConsistent checks whether the assigned literals about one subject
// admit a witness: a concrete type (for typed subjects) together with
// per-attribute values or NULLs.
func (s *solver) subjectConsistent(subject string) bool {
	var typeLits []typeLit
	attrLits := map[string][]attrLit{}
	for a, val := range s.asg {
		if a.subject() != subject {
			continue
		}
		switch a.Kind {
		case AtomType:
			typeLits = append(typeLits, typeLit{typ: a.Type, only: a.Only, pos: val})
		case AtomNull:
			attrLits[a.Attr] = append(attrLits[a.Attr], attrLit{null: true, pos: val})
		case AtomCmp:
			attrLits[a.Attr] = append(attrLits[a.Attr], attrLit{op: a.Op, val: a.Val, pos: val})
		}
	}
	candidates := s.t.ConcreteTypes(subject)
	if len(candidates) == 0 {
		// Untyped subject: every positive type literal is unsatisfiable and
		// attribute groups stand alone.
		for _, tl := range typeLits {
			if tl.pos {
				return false
			}
		}
		for attr, lits := range attrLits {
			if !s.attrFeasible(attr, lits, true) {
				return false
			}
		}
		return true
	}
	// Typed subject: some concrete type must satisfy the type literals and
	// admit all attribute groups.
	for _, c := range candidates {
		if !typeLitsHold(s.t, c, typeLits) {
			continue
		}
		ok := true
		for attr, lits := range attrLits {
			if !s.t.HasAttr(c, bareAttr(attr)) {
				// The attribute does not exist on this type, hence is NULL.
				if forcedNonNull(lits) {
					ok = false
					break
				}
				continue
			}
			if !s.attrFeasible(attr, lits, false) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func bareAttr(attr string) string {
	if i := strings.IndexByte(attr, '.'); i >= 0 {
		return attr[i+1:]
	}
	return attr
}

type typeLit struct {
	typ  string
	only bool
	pos  bool
}

type attrLit struct {
	null bool // true for IS NULL atoms, false for comparisons
	op   Op
	val  Value
	pos  bool
}

func typeLitsHold(t Theory, concrete string, lits []typeLit) bool {
	for _, l := range lits {
		var holds bool
		if l.only {
			holds = concrete == l.typ
		} else {
			holds = t.IsSubtype(concrete, l.typ)
		}
		if holds != l.pos {
			return false
		}
	}
	return true
}

func forcedNonNull(lits []attrLit) bool {
	for _, l := range lits {
		if l.null && !l.pos {
			return true // IS NULL assigned false
		}
		if !l.null && l.pos {
			return true // a positive comparison requires a value
		}
	}
	return false
}

func forcedNull(lits []attrLit) bool {
	for _, l := range lits {
		if l.null && l.pos {
			return true
		}
	}
	return false
}

// attrFeasible reports whether a single attribute admits a value (or NULL)
// consistent with its assigned literals.
func (s *solver) attrFeasible(attr string, lits []attrLit, untyped bool) bool {
	return attrFeasibleLits(s.attrInfo(attr), lits, &s.cmpsBuf)
}

// attrFeasibleLits is the domain reasoning shared by the historical solver
// and the enumeration engine: whether one attribute admits a value (or
// NULL) consistent with its assigned literals. cmpsBuf is caller-owned
// scratch, grown as needed.
func attrFeasibleLits(info domEntry, lits []attrLit, cmpsBuf *[]attrLit) bool {
	// Option 1: the attribute is NULL. All comparisons are then false.
	if info.nullable && !forcedNonNull(lits) {
		return true
	}
	// Option 2: the attribute holds a value.
	if forcedNull(lits) {
		return false
	}
	cmps := (*cmpsBuf)[:0]
	for _, l := range lits {
		if !l.null {
			cmps = append(cmps, l)
		}
	}
	*cmpsBuf = cmps
	if !info.known {
		return regionFeasibleUnknownDomain(cmps)
	}
	return regionFeasible(info.dom, cmps)
}

// regionFeasibleUnknownDomain handles attributes with no declared domain:
// the value may be of any kind.
func regionFeasibleUnknownDomain(cmps []attrLit) bool {
	// Positive literals force the kind.
	kind := Kind(-1)
	for _, l := range cmps {
		if l.pos {
			if kind >= 0 && kind != l.val.K {
				return false
			}
			kind = l.val.K
		}
	}
	if kind < 0 {
		// Only negative literals: pick any kind not mentioned, or any value
		// far from the mentioned constants; for bool fall through to the
		// two-valued check.
		return true
	}
	var same []attrLit
	for _, l := range cmps {
		if l.val.K == kind {
			same = append(same, l)
		} else if l.pos {
			return false
		}
		// Negative literals of other kinds hold vacuously.
	}
	return regionFeasible(Domain{Kind: kind}, same)
}

// regionFeasible decides whether some value of the given domain satisfies
// each comparison literal with its assigned polarity. Literals whose
// constant kind differs from the domain kind are always-false atoms: a
// positive occurrence is infeasible, a negative one vacuous (enumFeasible
// handles the latter through cmpHolds; rangeFeasible skips them).
func regionFeasible(dom Domain, cmps []attrLit) bool {
	for _, l := range cmps {
		if l.val.K != dom.Kind && l.pos {
			return false
		}
	}
	if len(dom.Enum) > 0 {
		return enumFeasible(dom.Enum, cmps)
	}
	if dom.Kind == KindBool {
		return enumFeasible([]Value{Bool(false), Bool(true)}, cmps)
	}
	return rangeFeasible(dom.Kind, cmps)
}

func enumFeasible(enum []Value, lits []attrLit) bool {
	// Fast path: a positive equality pins the value, so the enum scan
	// collapses to membership plus one pass over the literals. This keeps
	// exhaustive cell enumeration over large TPH discriminator domains
	// near-linear per search node.
	for _, l := range lits {
		if !l.pos || l.op != OpEq {
			continue
		}
		v := l.val
		if len(enum) > 0 && v.K != enum[0].K {
			return false // positive equality outside the domain kind
		}
		in := false
		for _, e := range enum {
			if c, ok := Compare(e, v); ok && c == 0 {
				in = true
				break
			}
		}
		if !in {
			return false
		}
		for _, l2 := range lits {
			if cmpHolds(v, l2.op, l2.val) != l2.pos {
				return false
			}
		}
		return true
	}
	// Negated equalities can rule out at most one enum value each.
	allNegEq := true
	for _, l := range lits {
		if l.pos || l.op != OpEq {
			allNegEq = false
			break
		}
	}
	if allNegEq && len(lits) < len(enum) {
		return true
	}
	for _, v := range enum {
		ok := true
		for _, l := range lits {
			if cmpHolds(v, l.op, l.val) != l.pos {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// rangeFeasible decides feasibility over an unbounded ordered domain using
// interval reasoning. Integer domains account for integrality of strict
// bounds and point exclusions; float and string domains are treated as
// dense unbounded orders.
func rangeFeasible(kind Kind, lits []attrLit) bool {
	type bound struct {
		val    Value
		strict bool
		set    bool
	}
	var lo, hi bound
	var eq *Value
	var excl []Value

	tightenLo := func(v Value, strict bool) {
		if !lo.set {
			lo = bound{val: v, strict: strict, set: true}
			return
		}
		c, _ := Compare(v, lo.val)
		if c > 0 || (c == 0 && strict && !lo.strict) {
			lo = bound{val: v, strict: strict, set: true}
		}
	}
	tightenHi := func(v Value, strict bool) {
		if !hi.set {
			hi = bound{val: v, strict: strict, set: true}
			return
		}
		c, _ := Compare(v, hi.val)
		if c < 0 || (c == 0 && strict && !hi.strict) {
			hi = bound{val: v, strict: strict, set: true}
		}
	}
	requireEq := func(v Value) bool {
		if eq != nil {
			c, _ := Compare(*eq, v)
			return c == 0
		}
		eq = &v
		return true
	}

	for _, l := range lits {
		if l.val.K != kind {
			continue // mismatched negatives are vacuous
		}
		op := l.op
		if !l.pos {
			op = op.Negate()
		}
		switch op {
		case OpEq:
			if !requireEq(l.val) {
				return false
			}
		case OpNe:
			excl = append(excl, l.val)
		case OpLt:
			tightenHi(l.val, true)
		case OpLe:
			tightenHi(l.val, false)
		case OpGt:
			tightenLo(l.val, true)
		case OpGe:
			tightenLo(l.val, false)
		}
	}

	if eq != nil {
		v := *eq
		for _, x := range excl {
			if c, _ := Compare(v, x); c == 0 {
				return false
			}
		}
		if lo.set {
			c, _ := Compare(v, lo.val)
			if c < 0 || (c == 0 && lo.strict) {
				return false
			}
		}
		if hi.set {
			c, _ := Compare(v, hi.val)
			if c > 0 || (c == 0 && hi.strict) {
				return false
			}
		}
		return true
	}

	if kind == KindInt {
		return intIntervalFeasible(lo.set, lo.val.IntVal(), lo.strict, hi.set, hi.val.IntVal(), hi.strict, excl)
	}

	// Dense order (floats; strings approximated as dense, which is sound
	// for the query classes this compiler generates).
	if lo.set && hi.set {
		c, _ := Compare(lo.val, hi.val)
		if c > 0 {
			return false
		}
		if c == 0 {
			if lo.strict || hi.strict {
				return false
			}
			for _, x := range excl {
				if cc, _ := Compare(lo.val, x); cc == 0 {
					return false
				}
			}
		}
	}
	return true
}

func intIntervalFeasible(loSet bool, lo int64, loStrict, hiSet bool, hi int64, hiStrict bool, excl []Value) bool {
	if loSet && loStrict {
		lo++
	}
	if hiSet && hiStrict {
		hi--
	}
	if loSet && hiSet {
		if lo > hi {
			return false
		}
		// Count distinct excluded points inside the closed interval.
		seen := map[int64]bool{}
		for _, x := range excl {
			v := x.IntVal()
			if v >= lo && v <= hi {
				seen[v] = true
			}
		}
		return hi-lo+1 > int64(len(seen))
	}
	return true
}

// SortAtoms orders atoms deterministically (the order used by Atoms).
func SortAtoms(atoms []Atom) {
	sort.Slice(atoms, func(i, j int) bool { return atoms[i].less(atoms[j]) })
}
