package edm

import (
	"sync"
	"sync/atomic"
)

// The hierarchy index answers the compiler's hot schema questions —
// IsSubtype, ConcreteIn, Descendants, RootOf, SetFor, Set — without
// scanning every type. It is kept per inheritance hierarchy so a mutation
// pays only for the hierarchy it touches, and a Clone shares every
// hierarchy it does not go on to change.
//
// Each type's map entry is a typeNode naming the hierarchy version it
// belongs to. A hierarchy's member list is fixed when the version is
// created (by AddType, RemoveType or RerootType, which replace the node of
// every member with one pointing at the new version); its derived tables
// are built on first use, once, under the version's sync.Once, so the
// compiler's parallel workers share one build. Entity sets and
// associations are indexed by name in the same spirit: an index covers a
// prefix of the declaration list, an append extends it in place unless a
// Clone shares it (then lookups scan the short uncovered tail), and only
// removals drop it.

// typeNode is one type's entry in Schema.types. Nodes are immutable and
// shared between a schema and its clones.
type typeNode struct {
	t *EntityType
	h *hierarchy
	i int32 // position in h.members
}

// hierarchy is one version of an inheritance hierarchy. members is set at
// creation; the remaining fields are filled by build and read-only after.
type hierarchy struct {
	members []string // declaration order

	once     sync.Once
	root     int32      // the parentless member (-1 only if Base links are corrupt)
	pre      []int32    // DFS pre-order number; -1 if unreachable from a root
	last     []int32    // largest pre-order number in the member's subtree
	desc     [][]string // proper descendants, declaration order
	concrete [][]string // non-abstract members of the subtree, declaration order
}

// newHierarchy replaces the node of every named type (given in declaration
// order) with one pointing at a fresh hierarchy version holding exactly
// those types.
func (s *Schema) newHierarchy(members []string) {
	h := &hierarchy{members: members}
	for i, n := range members {
		s.types[n] = &typeNode{t: s.types[n].t, h: h, i: int32(i)}
	}
}

// index returns the hierarchy's derived tables, building them on first
// use. Every schema whose nodes point at h agrees on the members' Base and
// Abstract fields (changing either creates a new version), so any of them
// may build it.
func (h *hierarchy) index(types map[string]*typeNode) *hierarchy {
	h.once.Do(func() { h.build(types) })
	return h
}

// Shared read-only tables of a one-type hierarchy, the common case (every
// chain-model type is its own hierarchy).
var (
	soloPos  = []int32{0}
	soloNone = [][]string{nil}
)

func (h *hierarchy) build(types map[string]*typeNode) {
	n := len(h.members)
	if n == 1 && types[h.members[0]].t.Base == "" {
		h.pre, h.last, h.desc, h.concrete = soloPos, soloPos, soloNone, soloNone
		if !types[h.members[0]].t.Abstract {
			h.concrete = [][]string{h.members[:1:1]}
		}
		return
	}

	// Parent links within the hierarchy, and the children of each member in
	// declaration order as a CSR adjacency (kids[first[v]:first[v+1]]).
	parent := make([]int32, n)
	first := make([]int32, n+1)
	h.root = -1
	for i, m := range h.members {
		parent[i] = -1
		b := types[m].t.Base
		if b == "" {
			if h.root < 0 {
				h.root = int32(i)
			}
		} else if bn, ok := types[b]; ok && bn.h == h {
			parent[i] = bn.i
			first[bn.i+1]++
		}
	}
	for i := 1; i <= n; i++ {
		first[i] += first[i-1]
	}
	kids := make([]int32, first[n])
	fill := append([]int32(nil), first[:n]...)
	for i, p := range parent {
		if p >= 0 {
			kids[fill[p]] = int32(i)
			fill[p]++
		}
	}

	// Pre-order numbering from every parentless member; byPre inverts it.
	// Members on a parent cycle (reachable only by corrupting Base links)
	// keep pre = -1 and are nobody's subtype.
	h.pre = make([]int32, n)
	h.last = make([]int32, n)
	byPre := make([]int32, 0, n)
	for i := range h.pre {
		h.pre[i] = -1
	}
	var stack []int32
	for r, p := range parent {
		if p >= 0 {
			continue
		}
		stack = append(stack[:0], int32(r))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			h.pre[v] = int32(len(byPre))
			byPre = append(byPre, v)
			for k := first[v+1] - 1; k >= first[v]; k-- {
				stack = append(stack, kids[k])
			}
		}
	}
	// A subtree spans pre[v]..last[v]; children finish before parents in
	// reverse pre-order.
	for i := range h.last {
		h.last[i] = h.pre[i]
	}
	for k := len(byPre) - 1; k >= 0; k-- {
		v := byPre[k]
		if p := parent[v]; p >= 0 && h.last[v] > h.last[p] {
			h.last[p] = h.last[v]
		}
	}

	// Descendant and concrete-subtree lists in declaration order: visiting
	// members in declaration order, each is appended to its own list and
	// its ancestors'. One backing array holds every list.
	ndesc, nconc := make([]int, n), make([]int, n)
	total := 0
	for i, m := range h.members {
		if h.pre[i] < 0 {
			continue
		}
		concrete := !types[m].t.Abstract
		if concrete {
			nconc[i]++
			total++
		}
		for p := parent[i]; p >= 0; p = parent[p] {
			ndesc[p]++
			total++
			if concrete {
				nconc[p]++
				total++
			}
		}
	}
	h.desc = make([][]string, n)
	h.concrete = make([][]string, n)
	backing := make([]string, total)
	carve := func(k int) []string {
		if k == 0 {
			return nil
		}
		out := backing[:0:k]
		backing = backing[k:]
		return out
	}
	for i := range h.members {
		h.desc[i] = carve(ndesc[i])
		h.concrete[i] = carve(nconc[i])
	}
	for i, m := range h.members {
		if h.pre[i] < 0 {
			continue
		}
		concrete := !types[m].t.Abstract
		if concrete {
			h.concrete[i] = append(h.concrete[i], m)
		}
		for p := parent[i]; p >= 0; p = parent[p] {
			h.desc[p] = append(h.desc[p], m)
			if concrete {
				h.concrete[p] = append(h.concrete[p], m)
			}
		}
	}
}

// contains reports whether member sub lies in member typ's subtree. h must
// be built.
func (h *hierarchy) contains(typ, sub int32) bool {
	p := h.pre[sub]
	return p >= 0 && h.pre[typ] >= 0 && h.pre[typ] <= p && p <= h.last[typ]
}

// listTailMax is how many appended entries a shared name index leaves to a
// linear scan before the schema builds its own.
const listTailMax = 32

// nameIndex maps a key of each of the first n entries of a declaration
// list (entity sets or associations) to its entry. A Clone shares its
// source's index and marks it shared; an unshared index is extended in
// place by the mutator that appends to the list.
type nameIndex[T any] struct {
	n      int
	shared atomic.Bool
	m      map[string]T
}

// listIndex is one lazily built nameIndex of a schema version. Its methods
// take the list and the key function naming an entry.
type listIndex[T any] struct {
	p atomic.Pointer[nameIndex[T]]
}

func setName(e *EntitySet) string     { return e.Name }
func setRoot(e *EntitySet) string     { return e.Type }
func assocName(a *Association) string { return a.Name }

// get returns the index covering most of list, building it under mu when
// it is missing or has fallen too far behind.
func (x *listIndex[T]) get(mu *sync.Mutex, list []T, key func(T) string) *nameIndex[T] {
	if ix := x.p.Load(); ix != nil && len(list)-ix.n <= listTailMax {
		return ix
	}
	mu.Lock()
	defer mu.Unlock()
	if ix := x.p.Load(); ix != nil && len(list)-ix.n <= listTailMax {
		return ix
	}
	ix := &nameIndex[T]{n: len(list), m: make(map[string]T, len(list))}
	for _, e := range list {
		ix.m[key(e)] = e
	}
	x.p.Store(ix)
	return ix
}

// find returns the entry of list with the given key.
func (x *listIndex[T]) find(mu *sync.Mutex, list []T, key func(T) string, k string) (T, bool) {
	ix := x.get(mu, list, key)
	if e, ok := ix.m[k]; ok {
		return e, true
	}
	for _, e := range list[ix.n:] {
		if key(e) == k {
			return e, true
		}
	}
	var zero T
	return zero, false
}

// appended records that list gained its last entry.
func (x *listIndex[T]) appended(list []T, key func(T) string) {
	if ix := x.p.Load(); ix != nil && !ix.shared.Load() && ix.n == len(list)-1 {
		e := list[ix.n]
		ix.m[key(e)] = e
		ix.n++
	}
}

// shareInto makes c use x's index, which neither side may extend again.
func (x *listIndex[T]) shareInto(c *listIndex[T]) {
	if ix := x.p.Load(); ix != nil {
		ix.shared.Store(true)
		c.p.Store(ix)
	}
}

// setRootedAt returns the entity set whose root type is typeName, or nil.
func (s *Schema) setRootedAt(typeName string) *EntitySet {
	e, _ := s.setsByRoot.find(&s.ixMu, s.sets, setRoot, typeName)
	return e
}
