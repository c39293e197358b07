// Package edm implements the client-side schema model of the reproduction:
// a subset of Microsoft's Entity Data Model as described in §2 of Bernstein
// et al. (SIGMOD 2013). A schema holds entity types arranged in
// single-inheritance hierarchies, entity sets that persist instances of a
// root type and all its descendants, and association types relating two
// entity types with 1:1, 1:n or m:n cardinality.
package edm

import (
	"fmt"
	"sort"
	"sync"

	"github.com/ormkit/incmap/internal/cond"
)

// Mult is an association-end multiplicity.
type Mult int

// Association-end multiplicities.
const (
	One     Mult = iota // exactly 1
	ZeroOne             // 0..1
	Many                // *
)

// String renders the multiplicity in the paper's notation.
func (m Mult) String() string {
	switch m {
	case One:
		return "1"
	case ZeroOne:
		return "0..1"
	case Many:
		return "*"
	default:
		return "?"
	}
}

// Attribute is a declared attribute of an entity type.
type Attribute struct {
	Name     string
	Type     cond.Kind
	Nullable bool
	// Enum optionally restricts the attribute to a finite value set.
	Enum []cond.Value
}

// Domain returns the attribute's condition-reasoning domain.
func (a Attribute) Domain() cond.Domain { return cond.Domain{Kind: a.Type, Enum: a.Enum} }

// EntityType is a node of an inheritance hierarchy. Attrs lists only the
// attributes declared on this type; inherited attributes are reached through
// Base. Key is set on root types only and must name declared attributes.
type EntityType struct {
	Name     string
	Base     string // "" for hierarchy roots
	Abstract bool
	Attrs    []Attribute
	Key      []string
}

// EntitySet is a persistent collection of entities of the set's root type
// and any type derived from it.
type EntitySet struct {
	Name string
	Type string
}

// End is one endpoint of an association.
type End struct {
	Type string
	Mult Mult
}

// Association relates entities of two types. Instances (associations) are
// pairs of entity keys. Each association type has exactly one association
// set, identified by the association's name, matching the paper's
// assumption that every association set appears in a single mapping
// fragment.
type Association struct {
	Name string
	End1 End
	End2 End
}

// Schema is a mutable client schema. The zero value is an empty schema
// ready for use. Mutators must not run concurrently with anything else;
// between mutations any number of goroutines may read the schema. Lookups
// go through the hierarchy index described in index.go.
type Schema struct {
	types  map[string]*typeNode
	order  []string
	sets   []*EntitySet
	assocs []*Association

	ixMu         sync.Mutex // serialises building the name indexes
	setsByName   listIndex[*EntitySet]
	setsByRoot   listIndex[*EntitySet]
	assocsByName listIndex[*Association]
}

// NewSchema returns an empty client schema.
func NewSchema() *Schema { return &Schema{types: map[string]*typeNode{}} }

// AddType adds an entity type. The base type, when named, must already be
// present.
func (s *Schema) AddType(t EntityType) error {
	if t.Name == "" {
		return fmt.Errorf("edm: entity type with empty name")
	}
	if s.types == nil {
		s.types = map[string]*typeNode{}
	}
	if _, dup := s.types[t.Name]; dup {
		return fmt.Errorf("edm: duplicate entity type %q", t.Name)
	}
	var base *typeNode
	if t.Base != "" {
		var ok bool
		base, ok = s.types[t.Base]
		if !ok {
			return fmt.Errorf("edm: type %q derives from unknown type %q", t.Name, t.Base)
		}
		if len(t.Key) > 0 {
			return fmt.Errorf("edm: derived type %q must not declare a key", t.Name)
		}
		for _, a := range t.Attrs {
			if s.HasAttr(t.Base, a.Name) {
				return fmt.Errorf("edm: type %q shadows inherited attribute %q", t.Name, a.Name)
			}
		}
	} else {
		if len(t.Key) == 0 {
			return fmt.Errorf("edm: root type %q must declare a key", t.Name)
		}
		declared := map[string]bool{}
		for _, a := range t.Attrs {
			declared[a.Name] = true
		}
		for _, k := range t.Key {
			if !declared[k] {
				return fmt.Errorf("edm: key attribute %q of type %q is not declared", k, t.Name)
			}
		}
	}
	seen := map[string]bool{}
	for _, a := range t.Attrs {
		if a.Name == "" {
			return fmt.Errorf("edm: type %q has an attribute with empty name", t.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("edm: type %q declares attribute %q twice", t.Name, a.Name)
		}
		seen[a.Name] = true
	}
	cp := t
	cp.Attrs = append([]Attribute(nil), t.Attrs...)
	cp.Key = append([]string(nil), t.Key...)
	s.order = append(s.order, t.Name)
	if base == nil {
		s.types[t.Name] = &typeNode{t: &cp, h: &hierarchy{members: []string{t.Name}}}
	} else {
		s.types[t.Name] = &typeNode{t: &cp}
		s.newHierarchy(append(base.h.members[:len(base.h.members):len(base.h.members)], t.Name))
	}
	return nil
}

// RemoveType deletes a leaf entity type. Types with descendants, types used
// as entity-set roots, and types referenced by associations cannot be
// removed.
func (s *Schema) RemoveType(name string) error {
	n, ok := s.types[name]
	if !ok {
		return fmt.Errorf("edm: unknown entity type %q", name)
	}
	if kids := s.Children(name); len(kids) > 0 {
		return fmt.Errorf("edm: type %q still has derived type %q", name, kids[0])
	}
	if set := s.setRootedAt(name); set != nil {
		return fmt.Errorf("edm: type %q is the root of entity set %q", name, set.Name)
	}
	for _, a := range s.assocs {
		if a.End1.Type == name || a.End2.Type == name {
			return fmt.Errorf("edm: type %q participates in association %q", name, a.Name)
		}
	}
	delete(s.types, name)
	for i, o := range s.order {
		if o == name {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	if rest := len(n.h.members) - 1; rest > 0 {
		members := make([]string, 0, rest)
		for _, m := range n.h.members {
			if m != name {
				members = append(members, m)
			}
		}
		s.newHierarchy(members)
	}
	return nil
}

// RerootType turns a standalone hierarchy root into a derived type of
// another hierarchy (the schema surgery behind the §3.4 refactoring SMO).
// The type loses its own key and entity set; its attributes must not
// collide with the new base hierarchy's.
func (s *Schema) RerootType(typeName, newBase string) error {
	t, ok := s.types[typeName]
	if !ok {
		return fmt.Errorf("edm: unknown entity type %q", typeName)
	}
	if t.t.Base != "" {
		return fmt.Errorf("edm: type %q is not a hierarchy root", typeName)
	}
	base, ok := s.types[newBase]
	if !ok {
		return fmt.Errorf("edm: unknown base type %q", newBase)
	}
	if s.IsSubtype(newBase, typeName) {
		return fmt.Errorf("edm: rerooting %q under %q would create a cycle", typeName, newBase)
	}
	for _, d := range append([]string{typeName}, s.Descendants(typeName)...) {
		for _, a := range s.types[d].t.Attrs {
			if s.HasAttr(newBase, a.Name) {
				return fmt.Errorf("edm: attribute %q of %q collides with the %q hierarchy", a.Name, d, newBase)
			}
		}
	}
	for i, set := range s.sets {
		if set.Type == typeName {
			s.sets = append(s.sets[:i], s.sets[i+1:]...)
			s.setsByName.p.Store(nil)
			s.setsByRoot.p.Store(nil)
			break
		}
	}
	moved, into := t.h, base.h
	mt := s.mutableType(typeName)
	mt.Base = newBase
	mt.Key = nil
	// The merged hierarchy keeps declaration order across both.
	members := make([]string, 0, len(moved.members)+len(into.members))
	for _, n := range s.order {
		if h := s.types[n].h; h == moved || h == into {
			members = append(members, n)
		}
	}
	s.newHierarchy(members)
	return nil
}

// AddAttr declares an additional attribute on an existing type.
func (s *Schema) AddAttr(typeName string, a Attribute) error {
	if _, ok := s.types[typeName]; !ok {
		return fmt.Errorf("edm: unknown entity type %q", typeName)
	}
	for _, n := range s.hierarchyOf(typeName) {
		if s.hasDeclaredAttr(n, a.Name) {
			return fmt.Errorf("edm: attribute %q already exists in the hierarchy of %q", a.Name, typeName)
		}
	}
	t := s.mutableType(typeName)
	t.Attrs = append(t.Attrs, a)
	return nil
}

// AddSet adds an entity set rooted at an existing type. A type can root at
// most one set.
func (s *Schema) AddSet(set EntitySet) error {
	if set.Name == "" {
		return fmt.Errorf("edm: entity set with empty name")
	}
	if _, ok := s.types[set.Type]; !ok {
		return fmt.Errorf("edm: entity set %q has unknown root type %q", set.Name, set.Type)
	}
	if s.Set(set.Name) != nil || s.setRootedAt(set.Type) != nil {
		// Report the first conflict in declaration order.
		for _, e := range s.sets {
			if e.Name == set.Name {
				return fmt.Errorf("edm: duplicate entity set %q", set.Name)
			}
			if e.Type == set.Type {
				return fmt.Errorf("edm: type %q already roots entity set %q", set.Type, e.Name)
			}
		}
	}
	cp := set
	s.sets = append(s.sets, &cp)
	s.setsByName.appended(s.sets, setName)
	s.setsByRoot.appended(s.sets, setRoot)
	return nil
}

// AddAssociation adds an association type (and implicitly its association
// set of the same name).
func (s *Schema) AddAssociation(a Association) error {
	if a.Name == "" {
		return fmt.Errorf("edm: association with empty name")
	}
	if _, ok := s.types[a.End1.Type]; !ok {
		return fmt.Errorf("edm: association %q has unknown end type %q", a.Name, a.End1.Type)
	}
	if _, ok := s.types[a.End2.Type]; !ok {
		return fmt.Errorf("edm: association %q has unknown end type %q", a.Name, a.End2.Type)
	}
	if s.Association(a.Name) != nil {
		return fmt.Errorf("edm: duplicate association %q", a.Name)
	}
	cp := a
	s.assocs = append(s.assocs, &cp)
	s.assocsByName.appended(s.assocs, assocName)
	return nil
}

// RemoveAssociation deletes an association type.
func (s *Schema) RemoveAssociation(name string) error {
	for i, a := range s.assocs {
		if a.Name == name {
			s.assocs = append(s.assocs[:i], s.assocs[i+1:]...)
			s.assocsByName.p.Store(nil)
			return nil
		}
	}
	return fmt.Errorf("edm: unknown association %q", name)
}

// Type returns the named entity type, or nil.
func (s *Schema) Type(name string) *EntityType {
	if n, ok := s.types[name]; ok {
		return n.t
	}
	return nil
}

// Types returns all entity types in declaration order.
func (s *Schema) Types() []*EntityType {
	out := make([]*EntityType, 0, len(s.order))
	for _, n := range s.order {
		out = append(out, s.types[n].t)
	}
	return out
}

// Sets returns all entity sets in declaration order.
func (s *Schema) Sets() []*EntitySet { return s.sets }

// Set returns the named entity set, or nil.
func (s *Schema) Set(name string) *EntitySet {
	e, _ := s.setsByName.find(&s.ixMu, s.sets, setName, name)
	return e
}

// Associations returns all association types in declaration order.
func (s *Schema) Associations() []*Association { return s.assocs }

// Association returns the named association, or nil.
func (s *Schema) Association(name string) *Association {
	a, _ := s.assocsByName.find(&s.ixMu, s.assocs, assocName, name)
	return a
}

// SetFor returns the entity set that persists instances of the given type:
// the set rooted at the type's hierarchy root.
func (s *Schema) SetFor(typeName string) *EntitySet {
	root := s.RootOf(typeName)
	if root == "" {
		return nil
	}
	return s.setRootedAt(root)
}

// indexed returns the type's node and its built hierarchy index.
func (s *Schema) indexed(typeName string) (*typeNode, *hierarchy) {
	n, ok := s.types[typeName]
	if !ok {
		return nil, nil
	}
	return n, n.h.index(s.types)
}

// RootOf returns the hierarchy root of the given type, or "" if unknown.
func (s *Schema) RootOf(typeName string) string {
	_, h := s.indexed(typeName)
	if h == nil || h.root < 0 {
		return ""
	}
	return h.members[h.root]
}

// Parent returns the base type name of the given type ("" for roots).
func (s *Schema) Parent(typeName string) string {
	if n, ok := s.types[typeName]; ok {
		return n.t.Base
	}
	return ""
}

// IsSubtype reports whether sub equals typ or derives from it.
func (s *Schema) IsSubtype(sub, typ string) bool {
	ns, ok := s.types[sub]
	if !ok {
		return false
	}
	if sub == typ {
		return true
	}
	nt, ok := s.types[typ]
	if !ok || nt.h != ns.h {
		return false
	}
	return ns.h.index(s.types).contains(nt.i, ns.i)
}

// Ancestors returns the proper ancestors of the type, nearest first.
func (s *Schema) Ancestors(typeName string) []string {
	var out []string
	n, ok := s.types[typeName]
	for ok && n.t.Base != "" {
		out = append(out, n.t.Base)
		n, ok = s.types[n.t.Base]
	}
	return out
}

// Descendants returns the proper descendants of the type in declaration
// order. The slice is shared; callers must not modify it.
func (s *Schema) Descendants(typeName string) []string {
	n, h := s.indexed(typeName)
	if n == nil {
		return nil
	}
	return h.desc[n.i]
}

// Children returns the direct subtypes of the type in declaration order.
func (s *Schema) Children(typeName string) []string {
	var out []string
	for _, d := range s.Descendants(typeName) {
		if s.types[d].t.Base == typeName {
			out = append(out, d)
		}
	}
	return out
}

// ConcreteIn returns the non-abstract types in the sub-hierarchy rooted at
// typeName (inclusive), in declaration order. The slice is shared; callers
// must not modify it.
func (s *Schema) ConcreteIn(typeName string) []string {
	n, h := s.indexed(typeName)
	if n == nil {
		return nil
	}
	return h.concrete[n.i]
}

// hierarchyOf returns every type in the same hierarchy as typeName, in
// declaration order. The slice is shared; callers must not modify it.
func (s *Schema) hierarchyOf(typeName string) []string {
	if n, ok := s.types[typeName]; ok {
		return n.h.members
	}
	return nil
}

func (s *Schema) hasDeclaredAttr(typeName, attr string) bool {
	for _, a := range s.types[typeName].t.Attrs {
		if a.Name == attr {
			return true
		}
	}
	return false
}

// AllAttrs returns the attributes of the type including inherited ones,
// root-most first.
func (s *Schema) AllAttrs(typeName string) []Attribute {
	chain := []*EntityType{}
	n, ok := s.types[typeName]
	for ok {
		chain = append(chain, n.t)
		if n.t.Base == "" {
			break
		}
		n, ok = s.types[n.t.Base]
	}
	var out []Attribute
	for i := len(chain) - 1; i >= 0; i-- {
		out = append(out, chain[i].Attrs...)
	}
	return out
}

// AttrNames returns the names of AllAttrs.
func (s *Schema) AttrNames(typeName string) []string {
	attrs := s.AllAttrs(typeName)
	out := make([]string, len(attrs))
	for i, a := range attrs {
		out[i] = a.Name
	}
	return out
}

// Attr looks up an attribute (inherited or declared) of the type, walking
// from the type up to its root.
func (s *Schema) Attr(typeName, attr string) (Attribute, bool) {
	n, ok := s.types[typeName]
	for ok {
		for _, a := range n.t.Attrs {
			if a.Name == attr {
				return a, true
			}
		}
		if n.t.Base == "" {
			break
		}
		n, ok = s.types[n.t.Base]
	}
	return Attribute{}, false
}

// HasAttr reports whether the type carries the attribute.
func (s *Schema) HasAttr(typeName, attr string) bool {
	_, ok := s.Attr(typeName, attr)
	return ok
}

// KeyOf returns the primary-key attributes of the type (declared on its
// hierarchy root).
func (s *Schema) KeyOf(typeName string) []string {
	root := s.RootOf(typeName)
	if root == "" {
		return nil
	}
	return append([]string(nil), s.types[root].t.Key...)
}

// Validate checks global schema well-formedness beyond the incremental
// checks done by the mutators.
func (s *Schema) Validate() error {
	// Cycles and unknown bases are found from the raw Base links, not the
	// index, which assumes neither.
	for _, n := range s.order {
		seen := map[string]bool{n: true}
		cur := s.types[n].t
		for cur.Base != "" {
			if seen[cur.Base] {
				return fmt.Errorf("edm: inheritance cycle through %q", cur.Base)
			}
			seen[cur.Base] = true
			next, ok := s.types[cur.Base]
			if !ok {
				return fmt.Errorf("edm: type %q derives from unknown type %q", cur.Name, cur.Base)
			}
			cur = next.t
		}
	}
	for _, n := range s.order {
		if t := s.types[n].t; t.Base == "" && len(t.Key) == 0 {
			return fmt.Errorf("edm: root type %q has no key", n)
		}
	}
	for _, set := range s.sets {
		if _, ok := s.types[set.Type]; !ok {
			return fmt.Errorf("edm: entity set %q has unknown root type %q", set.Name, set.Type)
		}
	}
	for _, a := range s.assocs {
		if s.SetFor(a.End1.Type) == nil {
			return fmt.Errorf("edm: association %q end type %q is not persisted by any entity set", a.Name, a.End1.Type)
		}
		if s.SetFor(a.End2.Type) == nil {
			return fmt.Errorf("edm: association %q end type %q is not persisted by any entity set", a.Name, a.End2.Type)
		}
	}
	return nil
}

// Clone returns a copy-on-write snapshot of the schema: the containers
// (type map, declaration order, set and association lists) are copied so
// each generation can add or remove entries privately, while the entries
// themselves — *EntityType, *EntitySet, *Association and the hierarchy
// index versions — are shared. Every mutator that changes an entry in
// place first replaces it with a private copy (see mutableType and
// newHierarchy), so a clone and its source never observe each other's
// changes.
func (s *Schema) Clone() *Schema {
	c := &Schema{
		types:  make(map[string]*typeNode, len(s.types)),
		order:  append(make([]string, 0, len(s.order)), s.order...),
		sets:   append(make([]*EntitySet, 0, len(s.sets)), s.sets...),
		assocs: append(make([]*Association, 0, len(s.assocs)), s.assocs...),
	}
	for n, t := range s.types {
		c.types[n] = t
	}
	s.setsByName.shareInto(&c.setsByName)
	s.setsByRoot.shareInto(&c.setsByRoot)
	s.assocsByName.shareInto(&c.assocsByName)
	return c
}

// DeepClone returns a fully independent copy of the schema, sharing no
// structure with the receiver. It exists for callers that need the
// pre-CoW deep-copy semantics (aliasing tests, benchmark baselines).
func (s *Schema) DeepClone() *Schema {
	c := NewSchema()
	hiers := map[*hierarchy]*hierarchy{}
	for _, n := range s.order {
		node := s.types[n]
		h, ok := hiers[node.h]
		if !ok {
			h = &hierarchy{members: append([]string(nil), node.h.members...)}
			hiers[node.h] = h
		}
		t := *node.t
		t.Attrs = append([]Attribute(nil), t.Attrs...)
		t.Key = append([]string(nil), t.Key...)
		c.types[n] = &typeNode{t: &t, h: h, i: node.i}
		c.order = append(c.order, n)
	}
	for _, e := range s.sets {
		cp := *e
		c.sets = append(c.sets, &cp)
	}
	for _, a := range s.assocs {
		cp := *a
		c.assocs = append(c.assocs, &cp)
	}
	return c
}

// mutableType replaces the named type's entry with a private copy and
// returns it. After Clone, entries are shared across generations; callers
// must go through this before any in-place entry mutation. The copy stays
// in its hierarchy version, so a caller that changes Base or Abstract must
// then call newHierarchy.
func (s *Schema) mutableType(name string) *EntityType {
	n := s.types[name]
	t := *n.t
	t.Attrs = append([]Attribute(nil), t.Attrs...)
	t.Key = append([]string(nil), t.Key...)
	s.types[name] = &typeNode{t: &t, h: n.h, i: n.i}
	return &t
}

// SortedTypeNames returns all type names sorted alphabetically (useful for
// deterministic output).
func (s *Schema) SortedTypeNames() []string {
	out := append([]string(nil), s.order...)
	sort.Strings(out)
	return out
}
