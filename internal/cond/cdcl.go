package cond

import (
	"fmt"
	"sync"
)

// A CDCL (conflict-driven clause learning) satisfiability core replacing
// the historical DPLL tree search of Satisfiable. The condition is Tseitin-
// encoded over its interned structure — every And/Or node contributes one
// gate variable keyed by its content address, negation folds into literal
// polarity — and solved with two-watched-literal unit propagation, 1-UIP
// conflict analysis and non-chronological backjumping. Assignments are
// dense arrays indexed by variable, not maps.
//
// Theory reasoning (discriminator-equality mutual exclusion, IS NOT NULL
// domains, concrete-type candidates) runs as a propagator on the same
// incremental index the cell enumerator uses (engine.go): every atom
// assignment updates its group's summary in O(1) words, and an infeasible
// group produces an explanation clause — the negation of the group's
// assigned literals — that conflict analysis can resolve on and learn from.
//
// Learned clauses deliberately keep their level-0 literals (the root
// assertion is a level-0 unit, and conflict analysis never resolves on
// literals below the current decision level), so every learned clause is
// implied by the theory facts and the gate definitions alone — never by
// the particular query being decided. That is what makes lemma persistence
// (satcache.go) sound: a clause whose gate literals all name structures
// present in a later query, over the same atom list and theory fingerprint,
// may be re-installed there verbatim — even in another process, since
// content addresses are structure-derived rather than process-local.

// SolverStats counts one solver run's work (and, accumulated by SatCache,
// a cache's lifetime totals).
type SolverStats struct {
	Propagations int64 // literals enqueued by unit propagation
	Conflicts    int64 // conflicts hit (boolean or theory)
	Learned      int64 // clauses learned by conflict analysis
	Backjumps    int64 // non-chronological jumps (skipping ≥1 level)
	LemmaHits    int64 // persisted lemmas re-installed from the store
	LemmasStored int64 // learned clauses persisted to the store
}

// lit is a literal: variable<<1 | 1 for negated occurrences.
type lit int32

// litUndef is the "no literal" sentinel used during conflict analysis.
const litUndef = lit(-2)

func mkLit(v int32, neg bool) lit {
	l := lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

func (l lit) v() int32   { return int32(l) >> 1 }
func (l lit) negd() bool { return l&1 != 0 }
func (l lit) inv() lit   { return l ^ 1 }

const reasonNone = int32(-1)

// cdclClause is one clause of the database. lits[0] and lits[1] are the
// watched literals for clauses that participate in propagation.
type cdclClause struct {
	lits []lit
}

// cdcl is the solver state for one Satisfiable decision.
type cdcl struct {
	t     Theory
	atoms []Atom
	eng   *enumEngine

	nAtoms   int32
	nVars    int32
	assigned []int8 // per var: -1 unassigned, 0 false, 1 true
	level    []int32
	reason   []int32 // clause index that propagated the var, or reasonNone
	trail    []lit
	trailLim []int
	qhead    int

	clauses []cdclClause
	watches [][]int32

	gateOf   map[string]int32 // content address -> gate var
	ckOf     []string         // per var: content address of its gate node, "" otherwise
	constVar int32            // lazily created always-true var, -1 until used

	units []lit // level-0 assertions (root literal, unit lemmas)
	unsat bool  // an empty/contradictory clause surfaced during setup

	store *lemmaStore
	stats SolverStats

	seen     []bool
	clearV   []int32
	explBuf  []int32
	learnBuf []lit

	// arena backs every clause's literals; see newLits.
	arena []lit
}

// cdclPool recycles solver state between decisions: a compile makes
// thousands of small decisions, and reusing the slices, maps and clause
// arena keeps them off the allocator.
var cdclPool = sync.Pool{New: func() any { return &cdcl{eng: &enumEngine{}} }}

// gateMapMax is the largest gate map a pooled solver keeps; a bigger one
// is dropped rather than cleared bucket by bucket on every later reuse.
const gateMapMax = 1024

// satisfiableCDCL decides theory-satisfiability of x over its atom list.
// store, when non-nil, supplies persisted lemmas for this (atoms, theory)
// scope and receives the clauses learned here. stats, when non-nil,
// receives the run's counters.
func satisfiableCDCL(t Theory, x Expr, atoms []Atom, store *lemmaStore, stats *SolverStats) bool {
	s := cdclPool.Get().(*cdcl)
	s.reset(t, atoms, store)
	for range atoms {
		s.addVar()
	}

	root := s.encode(x)
	s.units = append(s.units, root)
	s.installLemmas()

	sat := s.solve()
	solverTotals.add(&s.stats)
	if stats != nil {
		*stats = s.stats
	}
	s.release()
	cdclPool.Put(s)
	return sat
}

// reset prepares a pooled solver for a new decision, keeping its
// allocations.
func (s *cdcl) reset(t Theory, atoms []Atom, store *lemmaStore) {
	s.t, s.atoms, s.store = t, atoms, store
	s.nAtoms, s.nVars = int32(len(atoms)), 0
	s.assigned, s.level, s.reason = s.assigned[:0], s.level[:0], s.reason[:0]
	s.trail, s.trailLim, s.qhead = s.trail[:0], s.trailLim[:0], 0
	s.clauses, s.watches, s.ckOf = s.clauses[:0], s.watches[:0], s.ckOf[:0]
	if s.gateOf == nil || len(s.gateOf) > gateMapMax {
		s.gateOf = make(map[string]int32)
	} else {
		clear(s.gateOf)
	}
	s.constVar = -1
	s.units, s.unsat = s.units[:0], false
	s.stats = SolverStats{}
	s.arena = s.arena[:0]
	s.eng.reset(t, atoms)
}

// release drops the references a pooled solver would otherwise keep alive:
// the theory, the query's atoms and lemma store, and the clause slices,
// which may point into arena chunks the solver has outgrown.
func (s *cdcl) release() {
	s.t, s.atoms, s.store = nil, nil, nil
	s.eng.t, s.eng.atoms = nil, nil
	clear(s.clauses)
	clear(s.ckOf)
}

// newLits returns an empty literal slice of capacity n carved from the
// solver's arena. A slice handed out before the arena grows keeps its old
// chunk alive until the next reset.
func (s *cdcl) newLits(n int) []lit {
	if len(s.arena)+n > cap(s.arena) {
		s.arena = make([]lit, 0, max(2*cap(s.arena), n+256))
	}
	at := len(s.arena)
	s.arena = s.arena[:at+n]
	return s.arena[at : at : at+n]
}

func (s *cdcl) addVar() int32 {
	v := s.nVars
	s.nVars++
	s.assigned = append(s.assigned, -1)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, reasonNone)
	s.ckOf = append(s.ckOf, "")
	if n := len(s.watches); n+2 <= cap(s.watches) {
		// Reuse the watch lists a previous decision left behind.
		s.watches = s.watches[:n+2]
		s.watches[n], s.watches[n+1] = s.watches[n][:0], s.watches[n+1][:0]
	} else {
		s.watches = append(s.watches, nil, nil)
	}
	return v
}

// atomVarOf finds the atom's variable by binary search over the sorted
// atom list (the list is the canonical Atoms order).
func (s *cdcl) atomVarOf(a Atom) int32 {
	lo, hi := 0, len(s.atoms)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.atoms[mid].less(a) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int32(lo)
}

// constLit returns a literal that is true (neg=false) or false (neg=true)
// in every model, via a lazily created asserted variable. Constants never
// occur inside interned composites (the constructors simplify them away),
// so this only serves degenerate top-level expressions.
func (s *cdcl) constLit(neg bool) lit {
	if s.constVar < 0 {
		s.constVar = s.addVar()
		s.units = append(s.units, mkLit(s.constVar, false))
	}
	return mkLit(s.constVar, neg)
}

// encode returns a literal equivalent to x, adding gate definitions as
// needed. Composites reuse one gate per content address.
func (s *cdcl) encode(x Expr) lit {
	switch v := x.(type) {
	case True:
		return s.constLit(false)
	case False:
		return s.constLit(true)
	case *Not:
		return s.encode(v.X).inv()
	case *And:
		return s.encodeGate(v.ck, v.Xs, true)
	case *Or:
		return s.encodeGate(v.ck, v.Xs, false)
	default:
		a, ok := atomOf(x)
		if !ok {
			// Fail loudly: a new Expr variant must be taught to the encoder,
			// not silently treated as a constant.
			panic(fmt.Sprintf("cond: cdcl encode: unsupported Expr kind %T", x))
		}
		return mkLit(s.atomVarOf(a), false)
	}
}

func (s *cdcl) encodeGate(ck string, children []Expr, isAnd bool) lit {
	if ck != "" {
		if g, ok := s.gateOf[ck]; ok {
			return mkLit(g, false)
		}
	}
	cl := s.newLits(len(children))
	for _, c := range children {
		cl = append(cl, s.encode(c))
	}
	g := s.addVar()
	if ck != "" {
		s.gateOf[ck] = g
		s.ckOf[g] = ck
	}
	glit := mkLit(g, false)
	long := s.newLits(len(cl) + 1)
	if isAnd {
		// g ↔ c1 ∧ … ∧ ck: (¬g ∨ ci) each, (g ∨ ¬c1 ∨ … ∨ ¬ck).
		long = append(long, glit)
		for _, c := range cl {
			s.addClause(append(s.newLits(2), glit.inv(), c), true)
			long = append(long, c.inv())
		}
	} else {
		// g ↔ c1 ∨ … ∨ ck: (g ∨ ¬ci) each, (¬g ∨ c1 ∨ … ∨ ck).
		long = append(long, glit.inv())
		for _, c := range cl {
			s.addClause(append(s.newLits(2), glit, c.inv()), true)
			long = append(long, c)
		}
	}
	s.addClause(long, true)
	return glit
}

// addClause registers a clause; watched=false keeps it out of propagation
// (used for theory explanations, whose literals are all false when built —
// they serve conflict analysis and persistence only).
func (s *cdcl) addClause(ls []lit, watched bool) int32 {
	ci := int32(len(s.clauses))
	s.clauses = append(s.clauses, cdclClause{lits: ls})
	switch {
	case len(ls) == 0:
		s.unsat = true
	case len(ls) == 1:
		s.units = append(s.units, ls[0])
	case watched:
		s.watch(ls[0], ci)
		s.watch(ls[1], ci)
	}
	return ci
}

func (s *cdcl) watch(l lit, ci int32) {
	s.watches[int32(l)] = append(s.watches[int32(l)], ci)
}

// litVal reports the literal's truth under the current assignment:
// 1 true, 0 false, -1 unassigned.
func (s *cdcl) litVal(l lit) int8 {
	a := s.assigned[l.v()]
	if a < 0 {
		return -1
	}
	if l.negd() {
		return 1 - a
	}
	return a
}

func (s *cdcl) decisionLevel() int { return len(s.trailLim) }

// enqueue records l as true with the given reason and feeds atom
// assignments to the theory propagator. It returns the index of a theory
// conflict clause, or -1.
func (s *cdcl) enqueue(l lit, reason int32) int32 {
	v := l.v()
	if l.negd() {
		s.assigned[v] = 0
	} else {
		s.assigned[v] = 1
	}
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = reason
	s.trail = append(s.trail, l)
	if v < s.nAtoms {
		s.eng.assign(int(v), s.assigned[v])
		if !s.eng.feasibleAfter(int(v)) {
			return s.theoryConflict(int(v))
		}
	}
	return -1
}

// theoryConflict builds the explanation clause for the infeasible structure
// touched by atom i: the negation of every assigned literal the verdict
// depends on. The clause is implied by the theory alone (group feasibility
// is monotone in the literal set), so it is learnable and persistable.
func (s *cdcl) theoryConflict(i int) int32 {
	s.explBuf = s.eng.conflictAtoms(i, s.explBuf[:0])
	ls := s.newLits(len(s.explBuf))
	for _, ai := range s.explBuf {
		ls = append(ls, mkLit(ai, s.eng.vals[ai] == 1))
	}
	ci := s.addClause(ls, false)
	s.persist(ls)
	return ci
}

// propagate runs unit propagation to fixpoint, returning a conflicting
// clause index or -1.
func (s *cdcl) propagate() int32 {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		pi := int32(p.inv())
		ws := s.watches[pi]
		j := 0
		for i := 0; i < len(ws); i++ {
			ci := ws[i]
			c := &s.clauses[ci]
			// Normalize: the false literal sits at lits[1].
			if c.lits[0] == p.inv() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			if s.litVal(c.lits[0]) == 1 {
				ws[j] = ci
				j++
				continue
			}
			moved := false
			for k := 2; k < len(c.lits); k++ {
				if s.litVal(c.lits[k]) != 0 {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watch(c.lits[1], ci)
					moved = true
					break
				}
			}
			if moved {
				continue // clause left this watch list
			}
			ws[j] = ci
			j++
			if s.litVal(c.lits[0]) == 0 {
				// Conflict: flush the remaining watchers and report.
				for i++; i < len(ws); i++ {
					ws[j] = ws[i]
					j++
				}
				s.watches[pi] = ws[:j]
				s.qhead = len(s.trail)
				return ci
			}
			s.stats.Propagations++
			if confl := s.enqueue(c.lits[0], ci); confl >= 0 {
				for i++; i < len(ws); i++ {
					ws[j] = ws[i]
					j++
				}
				s.watches[pi] = ws[:j]
				s.qhead = len(s.trail)
				return confl
			}
		}
		s.watches[pi] = ws[:j]
	}
	return -1
}

// analyze performs 1-UIP conflict analysis from the conflicting clause,
// returning the learned clause (asserting literal first, a highest-level
// literal second) and the level to backjump to. Literals assigned below
// the current level — including level 0 — are kept in the clause, never
// resolved on; see the package comment on lemma soundness.
func (s *cdcl) analyze(confl int32) ([]lit, int) {
	if len(s.seen) < int(s.nVars) {
		s.seen = make([]bool, s.nVars)
	}
	learnt := append(s.learnBuf[:0], litUndef)
	curLevel := int32(s.decisionLevel())
	counter := 0
	p := litUndef
	ci := confl
	idx := len(s.trail) - 1

	for {
		c := s.clauses[ci].lits
		start := 0
		if p != litUndef {
			start = 1 // reason clauses carry the propagated literal at lits[0]
		}
		for _, q := range c[start:] {
			v := q.v()
			if s.seen[v] {
				continue
			}
			s.seen[v] = true
			s.clearV = append(s.clearV, v)
			if s.level[v] == curLevel {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		for !s.seen[s.trail[idx].v()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		counter--
		if counter == 0 {
			break
		}
		ci = s.reason[p.v()]
	}
	learnt[0] = p.inv()

	// Second literal: one assigned at the backjump level, so the clause's
	// watches stay coherent after the jump.
	bl := 0
	for i := 1; i < len(learnt); i++ {
		if lv := int(s.level[learnt[i].v()]); lv > bl {
			bl = lv
			learnt[1], learnt[i] = learnt[i], learnt[1]
		}
	}
	for _, v := range s.clearV {
		s.seen[v] = false
	}
	s.clearV = s.clearV[:0]
	s.learnBuf = learnt
	return append(s.newLits(len(learnt)), learnt...), bl
}

// backjump undoes every assignment above the given level.
func (s *cdcl) backjump(bl int) {
	lim := s.trailLim[bl]
	for len(s.trail) > lim {
		l := s.trail[len(s.trail)-1]
		s.trail = s.trail[:len(s.trail)-1]
		v := l.v()
		if v < s.nAtoms {
			s.eng.unassign(int(v))
		}
		s.assigned[v] = -1
		s.reason[v] = reasonNone
	}
	s.trailLim = s.trailLim[:bl]
	if s.qhead > lim {
		s.qhead = lim
	}
}

// learnAndAssert installs the learned clause and asserts its UIP literal,
// returning a theory conflict index if the assertion is infeasible.
func (s *cdcl) learnAndAssert(learnt []lit) int32 {
	s.stats.Learned++
	ci := s.addClause(learnt, len(learnt) >= 2)
	s.persist(learnt)
	if len(learnt) == 1 {
		// addClause queued it as a unit; assert it here instead.
		s.units = s.units[:len(s.units)-1]
	}
	return s.enqueue(learnt[0], ci)
}

// flushUnits asserts the pending level-0 literals (root, unit lemmas,
// constants). It returns a conflict clause index or -1.
func (s *cdcl) flushUnits() int32 {
	for i := 0; i < len(s.units); i++ {
		u := s.units[i]
		switch s.litVal(u) {
		case 1:
			continue
		case 0:
			// Contradicting units: fabricate the empty conflict.
			return s.addClause(nil, false)
		}
		if confl := s.enqueue(u, reasonNone); confl >= 0 {
			return confl
		}
		if confl := s.propagate(); confl >= 0 {
			return confl
		}
	}
	return -1
}

// nextDecision picks the first unassigned atom variable in canonical
// order, or -1 when every atom is assigned (gate variables are then all
// forced by propagation, so the formula is decided).
func (s *cdcl) nextDecision() int32 {
	for v := int32(0); v < s.nAtoms; v++ {
		if s.assigned[v] < 0 {
			return v
		}
	}
	return -1
}

func (s *cdcl) solve() bool {
	if s.unsat {
		return false
	}
	confl := s.flushUnits()
	for {
		if confl < 0 {
			confl = s.propagate()
		}
		if confl >= 0 {
			s.stats.Conflicts++
			if s.decisionLevel() == 0 {
				return false
			}
			learnt, bl := s.analyze(confl)
			if bl < s.decisionLevel()-1 {
				s.stats.Backjumps++
			}
			s.backjump(bl)
			confl = s.learnAndAssert(learnt)
			continue
		}
		v := s.nextDecision()
		if v < 0 {
			return true
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		confl = s.enqueue(mkLit(v, false), reasonNone)
	}
}

// conflictAtoms appends the indices of the assigned atoms of the structure
// touched by atom i — the inputs its infeasibility verdict depends on.
func (e *enumEngine) conflictAtoms(i int, out []int32) []int32 {
	ea := &e.ea[i]
	switch ea.kind {
	case eaTypeUntyped:
		return append(out, int32(i))
	case eaType:
		return e.subjectAssigned(&e.subjs[ea.subj], out)
	default:
		if ea.subj >= 0 {
			return e.subjectAssigned(&e.subjs[ea.subj], out)
		}
		g := &e.groups[ea.group]
		for _, mi := range g.members {
			if e.vals[mi] >= 0 {
				out = append(out, mi)
			}
		}
		return out
	}
}

func (e *enumEngine) subjectAssigned(s *eSubject, out []int32) []int32 {
	for _, ti := range s.typeMembers {
		if e.vals[ti] >= 0 {
			out = append(out, ti)
		}
	}
	for _, gi := range s.groups {
		for _, mi := range e.groups[gi].members {
			if e.vals[mi] >= 0 {
				out = append(out, mi)
			}
		}
	}
	return out
}
