package orm

import (
	"context"
	"fmt"
	"sort"

	"github.com/ormkit/incmap/internal/exec"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/state"
)

// This file is the streaming half of the runtime: the same three
// operations as orm.go (materialize, load, per-type query) evaluated
// through internal/exec's pull iterators over a TableStore, instead of
// cqt.Eval over a fully materialized state.StoreState. The materializing
// path stays the semantic oracle; internal/difftest holds the two
// equal on random states.

// QueryTypeStream opens a streaming read of one entity type's query view
// over a table store. The caller owns the returned iterator and must
// Close it; entity batches are valid until the next pull.
func QueryTypeStream(ctx context.Context, m *frag.Mapping, views *frag.Views, ts exec.TableStore, entityType string, opts exec.Options) (*exec.EntityIter, error) {
	v, ok := views.Query[entityType]
	if !ok {
		return nil, fmt.Errorf("orm: no query view for type %s", entityType)
	}
	env := &exec.Env{Catalog: m.Catalog(), Store: ts}
	return exec.OpenView(ctx, env, v, exec.Strict, opts)
}

// EachEntity streams one entity type's query view through a callback,
// never holding more than a batch. Returning a non-nil error from the
// callback stops the stream and surfaces that error.
func EachEntity(ctx context.Context, m *frag.Mapping, views *frag.Views, ts exec.TableStore, entityType string, opts exec.Options, fn func(*state.Entity) error) error {
	it, err := QueryTypeStream(ctx, m, views, ts, entityType, opts)
	if err != nil {
		return err
	}
	defer it.Close()
	for {
		batch, ok, err := it.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		for _, e := range batch {
			if err := fn(e); err != nil {
				return err
			}
		}
	}
}

// QueryTypeStreamed drains a streaming per-type read into a slice — the
// streaming counterpart of QueryType, with identical results by
// construction (same views, shared constructor and selection theory).
func QueryTypeStreamed(ctx context.Context, m *frag.Mapping, views *frag.Views, ts exec.TableStore, entityType string, opts exec.Options) ([]*state.Entity, error) {
	it, err := QueryTypeStream(ctx, m, views, ts, entityType, opts)
	if err != nil {
		return nil, err
	}
	out := []*state.Entity{}
	defer it.Close()
	for {
		batch, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		for _, e := range batch {
			out = append(out, e)
		}
	}
}

// LoadStream pulls a client state out of a table store through the query
// views, streaming each view instead of materializing its relational
// result first. It is Load's streaming counterpart: same views, same
// output.
func LoadStream(ctx context.Context, m *frag.Mapping, views *frag.Views, ts exec.TableStore, opts exec.Options) (*state.ClientState, error) {
	env := &exec.Env{Catalog: m.Catalog(), Store: ts}
	cs := state.NewClientState()
	for _, set := range m.Client.Sets() {
		v, ok := views.Query[set.Type]
		if !ok {
			continue
		}
		it, err := exec.OpenView(ctx, env, v, exec.Strict, opts)
		if err != nil {
			return nil, fmt.Errorf("orm: query view for %s: %w", set.Type, err)
		}
		ents, err := exec.CollectEntities(it)
		if err != nil {
			return nil, fmt.Errorf("orm: query view for %s: %w", set.Type, err)
		}
		for _, e := range ents {
			cs.Insert(set.Name, e)
		}
	}
	for _, a := range m.Client.Associations() {
		v, ok := views.Assoc[a.Name]
		if !ok {
			continue
		}
		it, err := exec.Open(ctx, env, v.Q, opts)
		if err != nil {
			return nil, fmt.Errorf("orm: association view for %s: %w", a.Name, err)
		}
		res, err := exec.Collect(it)
		if err != nil {
			return nil, fmt.Errorf("orm: association view for %s: %w", a.Name, err)
		}
		for _, r := range res.Rows {
			cs.Relate(a.Name, state.AssocPair{Ends: r})
		}
	}
	return cs, nil
}

// MaterializeStream pushes a client state through the update views and
// appends the produced rows to the given store batch-at-a-time — the
// streaming counterpart of Materialize, writing into any Appender
// (a RingStore, a MapStore over a fresh state) instead of building a
// whole StoreState. Tables are evaluated in sorted name order; within a
// table, row order matches Materialize.
func MaterializeStream(ctx context.Context, m *frag.Mapping, views *frag.Views, cs *state.ClientState, dst exec.Appender, opts exec.Options) error {
	env := &exec.Env{Catalog: m.Catalog(), Client: cs}
	tables := make([]string, 0, len(views.Update))
	for table := range views.Update {
		tables = append(tables, table)
	}
	sort.Strings(tables)
	for _, table := range tables {
		it, err := exec.Open(ctx, env, views.Update[table].Q, opts)
		if err != nil {
			return fmt.Errorf("orm: update view for %s: %w", table, err)
		}
		cols := it.Cols()
		for {
			batch, ok, err := it.Next()
			if err != nil {
				_ = it.Close()
				return fmt.Errorf("orm: update view for %s: %w", table, err)
			}
			if !ok {
				break
			}
			// The Appender owns what it is given: one fresh row per tuple.
			rows := make([]state.Row, len(batch))
			for i, t := range batch {
				rows[i] = t.Row(cols)
			}
			dst.Append(table, rows...)
		}
		if err := it.Close(); err != nil {
			return fmt.Errorf("orm: update view for %s: %w", table, err)
		}
	}
	return nil
}

// MaterializeInto materializes a client state into a fresh RingStore —
// the convenience entry for callers that want a streaming-readable store
// without ever building a map-backed StoreState.
func MaterializeInto(ctx context.Context, m *frag.Mapping, views *frag.Views, cs *state.ClientState, opts exec.Options) (*exec.RingStore, error) {
	rs := exec.NewRingStore(0)
	if err := MaterializeStream(ctx, m, views, cs, rs, opts); err != nil {
		return nil, err
	}
	return rs, nil
}

// StreamEnv builds the executor environment a compiled mapping's views
// run over — handy for callers dropping down to exec.Open directly.
func StreamEnv(m *frag.Mapping, ts exec.TableStore, cs *state.ClientState) *exec.Env {
	return &exec.Env{Catalog: m.Catalog(), Store: ts, Client: cs}
}
