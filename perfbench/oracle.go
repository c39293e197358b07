package main

import (
	"fmt"
	"sort"
	"strings"

	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/state"
)

// The oracles below are deliberately small and share no code with the
// layers they check: a value is rendered with fmt, a row as its sorted
// name=value pairs, and collections are compared as sorted multisets.

func rowKey(r state.Row) string {
	keys := make([]string, 0, len(r))
	for k := range r {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%v;", k, r[k])
	}
	return b.String()
}

func entityKey(set string, e *state.Entity) string { return set + "|" + e.Type + "|" + rowKey(e.Attrs) }

// multiset counts keys.
type multiset map[string]int

func (m multiset) equal(o multiset) bool {
	if len(m) != len(o) {
		return false
	}
	for k, n := range m {
		if o[k] != n {
			return false
		}
	}
	return true
}

// firstDiff names one key whose counts differ, for error messages.
func (m multiset) firstDiff(o multiset) string {
	keys := make([]string, 0, len(m)+len(o))
	for k := range m {
		keys = append(keys, k)
	}
	for k := range o {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if m[k] != o[k] {
			return fmt.Sprintf("%q: %d vs %d", k, m[k], o[k])
		}
	}
	return ""
}

// clientMultiset renders a client state's entities and association pairs.
func clientMultiset(cs *state.ClientState) multiset {
	out := multiset{}
	for set, es := range cs.Entities {
		for _, e := range es {
			out[entityKey(set, e)]++
		}
	}
	for a, ps := range cs.Assocs {
		for _, p := range ps {
			out["assoc:"+a+"|"+rowKey(p.Ends)]++
		}
	}
	return out
}

// storeMultiset renders a store state's rows.
func storeMultiset(ss *state.StoreState) multiset {
	out := multiset{}
	for t, rows := range ss.Tables {
		for _, r := range rows {
			out[t+"|"+rowKey(r)]++
		}
	}
	return out
}

// sameClient compares two client states as multisets.
func sameClient(what string, a, b *state.ClientState) error {
	ma, mb := clientMultiset(a), clientMultiset(b)
	if !ma.equal(mb) {
		return fmt.Errorf("%s: client states differ (%d vs %d items; first difference %s)", what, len(ma), len(mb), ma.firstDiff(mb))
	}
	return nil
}

// sameViews compares every view of two generations by their printed form.
func sameViews(a, b *frag.Views) error {
	for _, kind := range []struct {
		name string
		a, b map[string]*cqt.View
	}{{"query", a.Query, b.Query}, {"association", a.Assoc, b.Assoc}, {"update", a.Update, b.Update}} {
		if len(kind.a) != len(kind.b) {
			return fmt.Errorf("%s views: %d vs %d", kind.name, len(kind.a), len(kind.b))
		}
		for name, v := range kind.a {
			w, ok := kind.b[name]
			if !ok {
				return fmt.Errorf("%s view %s missing", kind.name, name)
			}
			if cqt.FormatView(v) != cqt.FormatView(w) {
				return fmt.Errorf("%s view %s differs", kind.name, name)
			}
		}
	}
	return nil
}
