package cond

import (
	"strconv"
	"sync"
	"sync/atomic"
)

// Lemma persistence: learned clauses outlive the Satisfiable call that
// derived them. A lemmaStore holds the clauses learned for one scope —
// one (sorted atom list, theory fingerprint) pair — in a solver-neutral
// form: atom literals by index into the scope's atom list, gate literals
// by the content address of the And/Or node they define. Because conflict
// analysis never resolves on the root assertion (a level-0 unit) and gate
// definitions are definitional extensions, every stored clause is implied
// by the theory and the gate definitions alone, so it can be installed
// verbatim into any later solver run over the same scope whose encoding
// contains all of the clause's gate nodes.
//
// Clauses naming a gate the new query does not contain are simply skipped
// at install time. Content addresses are structure-derived (intern.go), so
// a lemma can never be misattributed: a rebuilt or re-interned structure —
// even in a different process restoring a persisted snapshot — carries the
// same address exactly when it is the same structure.

const (
	maxLemmasPerScope = 256 // per-scope clause cap (append-only, first come)
	maxLemmaLen       = 24  // longer clauses prune too little to be worth storing
)

// lemmaLit is one literal of a persisted clause: an atom literal when
// gate == "" (atom indexes the scope's atom list), a gate literal
// otherwise (gate is the content address of the And/Or node).
type lemmaLit struct {
	gate string
	atom int32
	neg  bool
}

// lemmaKeyOf builds the deduplication key of a clause from its store form.
// The key depends only on content addresses and atom indices, so it is
// stable across processes (snapshot import reuses it).
func lemmaKeyOf(ls []lemmaLit) string {
	var key []byte
	for _, ll := range ls {
		if ll.gate == "" {
			key = strconv.AppendInt(key, int64(mkLit(ll.atom, ll.neg)), 36)
		} else {
			key = append(key, 'g')
			key = append(key, ll.gate...)
			if ll.neg {
				key = append(key, '-')
			}
		}
		key = append(key, '.')
	}
	return string(key)
}

// lemmaStore holds the persisted lemmas of one solver scope.
type lemmaStore struct {
	mu     sync.Mutex
	keys   map[string]struct{}
	lemmas [][]lemmaLit
	// ref is the second-chance bit for scope eviction (satcache.go),
	// set on scope lookups and cleared by the clock sweep.
	ref uint32
}

func (st *lemmaStore) addLocked(key string, ls []lemmaLit) bool {
	if st.keys == nil {
		st.keys = make(map[string]struct{})
	}
	if _, dup := st.keys[key]; dup {
		return false
	}
	st.keys[key] = struct{}{}
	st.lemmas = append(st.lemmas, ls)
	return true
}

// persist translates a learned clause into store form and appends it,
// skipping clauses that mention anonymous variables (the constant var) —
// those have no cross-run identity.
func (s *cdcl) persist(ls []lit) {
	if s.store == nil || len(ls) == 0 || len(ls) > maxLemmaLen {
		return
	}
	out := make([]lemmaLit, len(ls))
	for i, l := range ls {
		v := l.v()
		ll := lemmaLit{neg: l.negd()}
		if v < s.nAtoms {
			ll.atom = v
		} else {
			ck := s.ckOf[v]
			if ck == "" {
				return // anonymous variable: not persistable
			}
			ll.gate = ck
		}
		out[i] = ll
	}
	st := s.store
	st.mu.Lock()
	if len(st.lemmas) < maxLemmasPerScope && st.addLocked(lemmaKeyOf(out), out) {
		s.stats.LemmasStored++
	}
	st.mu.Unlock()
}

// installLemmas adds every applicable stored lemma to a freshly encoded
// solver (called before solving, while all variables are unassigned).
// Lemmas whose gates are absent from this query's encoding are skipped.
func (s *cdcl) installLemmas() {
	if s.store == nil {
		return
	}
	s.store.mu.Lock()
	snapshot := s.store.lemmas
	s.store.mu.Unlock()
	for _, lm := range snapshot {
		ls := s.learnBuf[:0]
		ok := true
		for _, ll := range lm {
			if ll.gate != "" {
				g, present := s.gateOf[ll.gate]
				if !present {
					ok = false
					break
				}
				ls = append(ls, mkLit(g, ll.neg))
			} else {
				if ll.atom < 0 || ll.atom >= s.nAtoms {
					// Imported lemmas are schema-checked but their atom
					// indices are scope-relative; never trust them blindly.
					ok = false
					break
				}
				ls = append(ls, mkLit(ll.atom, ll.neg))
			}
		}
		s.learnBuf = ls
		if !ok {
			continue
		}
		s.addClause(append(s.newLits(len(ls)), ls...), len(ls) >= 2)
		s.stats.LemmaHits++
	}
}

// solverCounters accumulates solver work across all runs in the process.
// Each solve flushes its local SolverStats here once, so the per-solve
// cost is a handful of atomic adds off the hot loop. Consumers (the obsv
// registry's gauges) read them via SolverTotals.
type solverCounters struct {
	propagations atomic.Int64
	conflicts    atomic.Int64
	learned      atomic.Int64
	backjumps    atomic.Int64
	lemmaHits    atomic.Int64
	lemmasStored atomic.Int64
}

var solverTotals solverCounters

func (c *solverCounters) add(s *SolverStats) {
	if s.Propagations != 0 {
		c.propagations.Add(s.Propagations)
	}
	if s.Conflicts != 0 {
		c.conflicts.Add(s.Conflicts)
	}
	if s.Learned != 0 {
		c.learned.Add(s.Learned)
	}
	if s.Backjumps != 0 {
		c.backjumps.Add(s.Backjumps)
	}
	if s.LemmaHits != 0 {
		c.lemmaHits.Add(s.LemmaHits)
	}
	if s.LemmasStored != 0 {
		c.lemmasStored.Add(s.LemmasStored)
	}
}

// SolverTotals returns the process-lifetime solver counters.
func SolverTotals() SolverStats {
	return SolverStats{
		Propagations: solverTotals.propagations.Load(),
		Conflicts:    solverTotals.conflicts.Load(),
		Learned:      solverTotals.learned.Load(),
		Backjumps:    solverTotals.backjumps.Load(),
		LemmaHits:    solverTotals.lemmaHits.Load(),
		LemmasStored: solverTotals.lemmasStored.Load(),
	}
}
