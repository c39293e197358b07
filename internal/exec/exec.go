package exec

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/faultinject"
	"github.com/ormkit/incmap/internal/obsv"
	"github.com/ormkit/incmap/internal/state"
)

// DefaultBatchSize is the rows-per-batch default when Options leaves
// BatchSize unset.
const DefaultBatchSize = 1024

// Options tunes one executor run.
type Options struct {
	// BatchSize caps the rows per pulled batch (<=0: DefaultBatchSize).
	BatchSize int
	// Tracer overrides the process-wide tracer for executor spans; nil
	// resolves obsv's default (and tracing stays free when none is set).
	Tracer *obsv.Tracer
}

func (o Options) batch() int {
	if o.BatchSize <= 0 {
		return DefaultBatchSize
	}
	return o.BatchSize
}

// Env supplies the data a streaming evaluation runs over: query views
// scan Store, update views scan Client. A nil Store or Client fails the
// corresponding scan at open time, like the materializing evaluator.
type Env struct {
	Catalog *cqt.Catalog
	Store   TableStore
	Client  *state.ClientState
}

// Tuple is one streamed row, laid out positionally against the emitting
// operator's output schema: Vals[i] is the value of Cols()[i] (a NULL
// marker when absent) and Types[i] the concrete entity type of the
// operator's i-th subject ("" when untyped), which IS OF conditions
// read. Both slices belong to the operator's batch arena and are
// overwritten by the next pull; Row copies a tuple out.
type Tuple struct {
	Vals  []cond.Value
	Types []string
}

// null marks an absent column value. cond.Value has no NULL of its own;
// a kind outside cond's range never equals a real value.
var null = cond.Value{K: -1}

// isNull reports whether a tuple value is the NULL marker.
func isNull(v cond.Value) bool { return v.K == null.K }

// Row copies the tuple into a fresh map keyed by the given column names
// (the emitting operator's Cols()), leaving NULL columns absent. It is
// the executor's map boundary: rows handed to an Appender or returned by
// Collect are built here, once per emitted row.
func (t Tuple) Row(cols []string) state.Row {
	r := make(state.Row, len(cols))
	for i, v := range t.Vals {
		if !isNull(v) {
			r[cols[i]] = v
		}
	}
	return r
}

// colIndex maps column names to their positions in a layout. A name
// listed twice resolves to its last position.
func colIndex(cols []string) map[string]int {
	idx := make(map[string]int, len(cols))
	for i, c := range cols {
		idx[c] = i
	}
	return idx
}

// positions resolves names against a layout; absent names map to -1.
func positions(names []string, idx map[string]int) []int {
	out := make([]int, len(names))
	for i, n := range names {
		p, ok := idx[n]
		if !ok {
			p = -1
		}
		out[i] = p
	}
	return out
}

// rowInst evaluates conditions on a tuple through the column index
// resolved at open. Subject types are read only when subj is set: view
// constructors evaluate their cases type-blind, as over a plain row.
type rowInst struct {
	cols []string
	idx  map[string]int
	subj []string
	t    Tuple
}

func newRowInst(cols, subj []string) *rowInst {
	return &rowInst{cols: cols, idx: colIndex(cols), subj: subj}
}

// InstanceType implements cond.Instance.
func (r *rowInst) InstanceType(subject string) string {
	for i, s := range r.subj {
		if s == subject {
			return r.t.Types[i]
		}
	}
	return ""
}

// Lookup implements cond.Instance.
func (r *rowInst) Lookup(attr string) (cond.Value, bool) {
	i, ok := r.idx[attr]
	if !ok || isNull(r.t.Vals[i]) {
		return cond.Value{}, false
	}
	return r.t.Vals[i], true
}

// String renders the tuple like state.Row.Canonical, for error messages.
func (r *rowInst) String() string { return r.t.Row(r.cols).Canonical() }

// slab is the flat backing store of an arena or a join build. Slabs are
// pooled across iterator lifetimes: a view over a few hundred rows would
// otherwise allocate its whole working set again on every open. An
// operator returns its slabs when it closes, which the Iterator contract
// allows, since batches are invalid after Close.
type slab struct {
	vals   []cond.Value
	types  []string
	tuples []Tuple
}

var slabs = sync.Pool{New: func() any { return new(slab) }}

// release returns a slab to the pool; nil is a no-op.
func (s *slab) release() {
	if s == nil {
		return
	}
	s.vals, s.types, s.tuples = s.vals[:0], s.types[:0], s.tuples[:0]
	slabs.Put(s)
}

// arena holds one outgoing batch in a slab whose slices are reused
// across pulls (a batch is valid only until the next Next). When a batch
// outgrows the slices they are regrown; tuples already handed out keep
// pointing at the old backing arrays, which stay intact.
type arena struct {
	width, nsubj int
	*slab        // taken from the pool at the first reset
}

// reset starts a new batch.
func (a *arena) reset() {
	if a.slab == nil {
		a.slab = slabs.Get().(*slab)
	}
	a.vals, a.types, a.tuples = a.vals[:0], a.types[:0], a.tuples[:0]
}

// add appends a tuple to the batch and returns it; the caller fills
// every slot before the next add.
func (a *arena) add() *Tuple {
	n, m := len(a.vals), len(a.types)
	a.vals = slices.Grow(a.vals, a.width)[:n+a.width]
	a.types = slices.Grow(a.types, a.nsubj)[:m+a.nsubj]
	a.tuples = append(a.tuples, Tuple{Vals: a.vals[n : n+a.width : n+a.width], Types: a.types[m : m+a.nsubj : m+a.nsubj]})
	return &a.tuples[len(a.tuples)-1]
}

// free returns the arena's slab to the pool.
func (a *arena) free() {
	a.slab.release()
	a.slab = nil
}

// Iterator is a batched pull iterator over tuples: the executor's
// operator interface. The contract every operator honours (and the
// contract tests pin):
//
//   - Next returns (batch, true, nil) while tuples remain; the batch,
//     and the value and type slices of its tuples, are valid only until
//     the next Next or Close call. Every tuple is laid out against Cols().
//   - Next returns (nil, false, nil) once exhausted, and keeps doing so.
//   - A non-nil error ends the stream; the error is sticky.
//   - Close is idempotent, releases the whole subtree, and may be called
//     at any point — before exhaustion, twice, or never having pulled.
//   - After Close, Next returns (nil, false, nil).
type Iterator interface {
	Next() ([]Tuple, bool, error)
	Close() error
	// Cols returns the stream's output column names.
	Cols() []string
}

// OpError is the typed error a streaming operator surfaces when its data
// source fails mid-stream (an injected scan fault, a cancelled context,
// a store error). It identifies the operator and scan target so callers
// can tell an executor fault from a view-compilation bug.
type OpError struct {
	Op     string // "scan", "join", ...
	Target string // table / set / association being read
	Err    error
}

// Error implements error.
func (e *OpError) Error() string {
	return fmt.Sprintf("exec: %s of %s: %v", e.Op, e.Target, e.Err)
}

// Unwrap implements errors.Unwrap.
func (e *OpError) Unwrap() error { return e.Err }

// Open compiles a cqt expression into a streaming iterator tree over the
// environment. Catalog validation (unknown scans, unequated shared join
// columns, ragged unions) happens here, before any row moves, and every
// operator resolves the column names it reads to positions in its
// input's layout; the returned iterator is positioned before the first
// batch. The caller must Close it (Close is safe to call more than once).
func Open(ctx context.Context, env *Env, e cqt.Expr, opts Options) (Iterator, error) {
	tr := opts.Tracer
	if tr == nil {
		tr = obsv.Default()
	}
	sp := tr.SpanCtx(ctx, "exec", obsv.String("root", opName(e)))
	obsv.Add(obsv.MExecOpens, 1)
	it, err := open(ctx, env, e, opts, sp)
	if err != nil {
		sp.EndErr(err)
		return nil, err
	}
	return &rootIter{child: it, sp: sp}, nil
}

func opName(e cqt.Expr) string {
	switch e.(type) {
	case cqt.ScanTable:
		return "scan-table"
	case cqt.ScanSet:
		return "scan-set"
	case cqt.ScanAssoc:
		return "scan-assoc"
	case cqt.Select:
		return "select"
	case cqt.Project:
		return "project"
	case cqt.Join:
		return "join"
	case cqt.UnionAll:
		return "union-all"
	}
	return fmt.Sprintf("%T", e)
}

// operator is an Iterator that also reports its subject layout, which
// parents resolve against at open.
type operator interface {
	Iterator
	subjects() []string
}

// opBase carries the bookkeeping every operator shares: output columns
// and subjects, closed/error state, the operator span, and locally
// accumulated traffic counters flushed to the process registry once at
// Close.
type opBase struct {
	cols   []string
	subj   []string
	closed bool
	err    error
	sp     *obsv.Span

	rows, batches int64
}

func (b *opBase) Cols() []string     { return b.cols }
func (b *opBase) subjects() []string { return b.subj }

// emit records one outgoing batch.
func (b *opBase) emit(n int) {
	b.rows += int64(n)
	b.batches++
}

// finish ends the operator: flushes counters, ends the span. Idempotent
// via the closed flag its caller sets.
func (b *opBase) finish() {
	if b.rows > 0 || b.batches > 0 {
		obsv.Add(obsv.MExecRows, b.rows)
		obsv.Add(obsv.MExecBatches, b.batches)
	}
	if b.err != nil {
		b.sp.End(obsv.OutcomeError,
			obsv.String("error", b.err.Error()),
			obsv.String("rows", fmt.Sprint(b.rows)))
		return
	}
	b.sp.End(obsv.OutcomeOK,
		obsv.String("rows", fmt.Sprint(b.rows)),
		obsv.String("batches", fmt.Sprint(b.batches)))
}

// fail marks the stream failed and returns the sticky error.
func (b *opBase) fail(err error) ([]Tuple, bool, error) {
	if b.err == nil {
		b.err = err
	}
	return nil, false, b.err
}

// gate returns (handled) results for the common preamble: closed streams
// yield (nil,false,nil), failed streams re-yield their sticky error.
func (b *opBase) gate() ([]Tuple, bool, error, bool) {
	if b.closed {
		return nil, false, nil, true
	}
	if b.err != nil {
		return nil, false, b.err, true
	}
	return nil, false, nil, false
}

// open builds the iterator tree. Scans take their columns from the
// catalog, which also rejects unknown targets; every other operator
// derives its columns from its inputs' once they are open.
func open(ctx context.Context, env *Env, e cqt.Expr, opts Options, parent *obsv.Span) (operator, error) {
	var cols []string
	switch e.(type) {
	case cqt.ScanTable, cqt.ScanSet, cqt.ScanAssoc:
		var err error
		if cols, err = env.Catalog.Cols(e); err != nil {
			return nil, err
		}
	}
	switch v := e.(type) {
	case cqt.ScanTable:
		if env.Store == nil {
			return nil, fmt.Errorf("exec: table scan %q without a table store", v.Table)
		}
		src, err := env.Store.Scan(ctx, v.Table, opts.batch())
		if err != nil {
			return nil, &OpError{Op: "scan", Target: v.Table, Err: err}
		}
		return &scanIter{
			opBase: opBase{cols: cols, sp: parent.Child("exec.scan", obsv.String("table", v.Table))},
			ctx:    ctx, table: v.Table, src: src,
			out: arena{width: len(cols)},
		}, nil

	case cqt.ScanSet:
		if env.Client == nil {
			return nil, fmt.Errorf("exec: entity-set scan %q without a client state", v.Set)
		}
		return &clientScanIter{
			opBase: opBase{cols: cols, subj: []string{""}, sp: parent.Child("exec.scan-set", obsv.String("set", v.Set))},
			ctx:    ctx, target: v.Set, batch: opts.batch(),
			entities: env.Client.Entities[v.Set],
			out:      arena{width: len(cols), nsubj: 1},
		}, nil

	case cqt.ScanAssoc:
		if env.Client == nil {
			return nil, fmt.Errorf("exec: association scan %q without a client state", v.Assoc)
		}
		return &clientScanIter{
			opBase: opBase{cols: cols, sp: parent.Child("exec.scan-assoc", obsv.String("assoc", v.Assoc))},
			ctx:    ctx, target: v.Assoc, batch: opts.batch(),
			pairs: env.Client.Assocs[v.Assoc],
			out:   arena{width: len(cols)},
		}, nil

	case cqt.Select:
		in, err := open(ctx, env, v.In, opts, parent)
		if err != nil {
			return nil, err
		}
		return &selectIter{
			opBase: opBase{cols: in.Cols(), subj: in.subjects(), sp: parent.Child("exec.select")},
			in:     in, cond: v.Cond, th: cqt.EvalTheory(env.Catalog),
			inst: newRowInst(in.Cols(), in.subjects()),
		}, nil

	case cqt.Project:
		in, err := open(ctx, env, v.In, opts, parent)
		if err != nil {
			return nil, err
		}
		idx := colIndex(in.Cols())
		p := &projectIter{
			opBase: opBase{cols: make([]string, len(v.Cols)), subj: in.subjects(), sp: parent.Child("exec.project")},
			in:     in,
			src:    make([]int, len(v.Cols)),
			lits:   make([]cond.Value, len(v.Cols)),
			out:    arena{width: len(v.Cols)},
		}
		for i, pc := range v.Cols {
			p.cols[i], p.src[i], p.lits[i] = pc.As, -1, null
			if pc.Lit != nil {
				if val, ok := pc.Lit.Value(); ok {
					p.lits[i] = val
				}
			} else if at, ok := idx[pc.Src]; ok {
				p.src[i] = at
			}
		}
		return p, nil

	case cqt.Join:
		return openJoin(ctx, env, v, opts, parent)

	case cqt.UnionAll:
		if len(v.Inputs) == 0 {
			return nil, fmt.Errorf("exec: empty union")
		}
		u := &unionIter{}
		for i, in := range v.Inputs {
			it, err := open(ctx, env, in, opts, parent)
			if err != nil {
				u.closeInputs()
				return nil, err
			}
			u.inputs = append(u.inputs, it)
			if i > 0 && !sameColSet(u.inputs[0].Cols(), it.Cols()) {
				u.closeInputs()
				return nil, fmt.Errorf("exec: union inputs have different columns: %v vs %v", u.inputs[0].Cols(), it.Cols())
			}
		}
		u.opBase = opBase{cols: u.inputs[0].Cols(), sp: parent.Child("exec.union-all")}
		u.layout()
		return u, nil
	}
	return nil, fmt.Errorf("exec: unknown expression %T", e)
}

// rootIter wraps the tree so the run-level span closes exactly once,
// after every operator span.
type rootIter struct {
	child  Iterator
	sp     *obsv.Span
	closed bool
	err    error
}

func (r *rootIter) Cols() []string { return r.child.Cols() }

func (r *rootIter) Next() ([]Tuple, bool, error) {
	if r.closed {
		return nil, false, nil
	}
	batch, ok, err := r.child.Next()
	if err != nil {
		r.err = err
	}
	return batch, ok, err
}

func (r *rootIter) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	err := r.child.Close()
	if r.err != nil {
		r.sp.End(obsv.OutcomeError, obsv.String("error", r.err.Error()))
	} else {
		r.sp.End(obsv.OutcomeOK)
	}
	return err
}

// fill lays a map row out positionally: each column's value, or NULL.
func fill(dst []cond.Value, cols []string, row state.Row) {
	for i, c := range cols {
		if v, ok := row[c]; ok {
			dst[i] = v
		} else {
			dst[i] = null
		}
	}
}

// scanIter streams a table store scan, laying rows out positionally. It
// is the executor's fault-injection surface: faultinject.SiteExecScan
// fires once per batch before the store is read.
type scanIter struct {
	opBase
	ctx   context.Context
	table string
	src   RowIter
	out   arena
}

func (s *scanIter) Next() ([]Tuple, bool, error) {
	if t, ok, err, handled := s.gate(); handled {
		return t, ok, err
	}
	if err := s.ctx.Err(); err != nil {
		return s.fail(&OpError{Op: "scan", Target: s.table, Err: err})
	}
	if err := faultinject.At(faultinject.SiteExecScan); err != nil {
		obsv.Add(obsv.MExecScanFaults, 1)
		return s.fail(&OpError{Op: "scan", Target: s.table, Err: err})
	}
	rows, ok, err := s.src.Next()
	if err != nil {
		obsv.Add(obsv.MExecScanFaults, 1)
		return s.fail(&OpError{Op: "scan", Target: s.table, Err: err})
	}
	if !ok {
		return nil, false, nil
	}
	s.out.reset()
	for _, r := range rows {
		fill(s.out.add().Vals, s.cols, r)
	}
	s.emit(len(rows))
	obsv.Add(obsv.MExecScanRows, int64(len(rows)))
	return s.out.tuples, true, nil
}

func (s *scanIter) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.src.Close()
	s.out.free()
	s.finish()
	return err
}

// clientScanIter streams a client entity set (one subject, the entity's
// type) or association set (untyped). Exactly one of entities/pairs is
// set.
type clientScanIter struct {
	opBase
	ctx      context.Context
	target   string
	batch    int
	entities []*state.Entity
	pairs    []state.AssocPair
	off      int
	out      arena
}

func (s *clientScanIter) Next() ([]Tuple, bool, error) {
	if t, ok, err, handled := s.gate(); handled {
		return t, ok, err
	}
	if err := s.ctx.Err(); err != nil {
		return s.fail(&OpError{Op: "scan", Target: s.target, Err: err})
	}
	n := len(s.entities) + len(s.pairs)
	if s.off >= n {
		return nil, false, nil
	}
	end := min(s.off+s.batch, n)
	s.out.reset()
	for i := s.off; i < end; i++ {
		t := s.out.add()
		if s.entities != nil {
			e := s.entities[i]
			t.Types[0] = e.Type
			fill(t.Vals, s.cols, e.Attrs)
		} else {
			fill(t.Vals, s.cols, s.pairs[i].Ends)
		}
	}
	s.emit(end - s.off)
	obsv.Add(obsv.MExecScanRows, int64(end-s.off))
	s.off = end
	return s.out.tuples, true, nil
}

func (s *clientScanIter) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.entities, s.pairs = nil, nil
	s.out.free()
	s.finish()
	return nil
}

// selectIter filters batches in place (the input batch is owned by the
// consumer until the next pull, so compacting it is safe).
type selectIter struct {
	opBase
	in   operator
	cond cond.Expr
	th   cond.Theory
	inst *rowInst
}

func (s *selectIter) Next() ([]Tuple, bool, error) {
	if t, ok, err, handled := s.gate(); handled {
		return t, ok, err
	}
	for {
		batch, ok, err := s.in.Next()
		if err != nil {
			return s.fail(err)
		}
		if !ok {
			return nil, false, nil
		}
		out := batch[:0]
		for _, t := range batch {
			s.inst.t = t
			if cond.EvalOn(s.th, s.cond, s.inst) {
				out = append(out, t)
			}
		}
		if len(out) == 0 {
			continue // fully filtered batch; pull the next one
		}
		s.emit(len(out))
		return out, true, nil
	}
}

func (s *selectIter) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.in.Close()
	s.finish()
	return err
}

// projectIter renames, drops and computes columns: each output slot is
// an input position resolved at open (src[i] >= 0) or a literal. Subject
// types pass through from the input batch.
type projectIter struct {
	opBase
	in   operator
	src  []int
	lits []cond.Value
	out  arena
}

func (p *projectIter) Next() ([]Tuple, bool, error) {
	if t, ok, err, handled := p.gate(); handled {
		return t, ok, err
	}
	batch, ok, err := p.in.Next()
	if err != nil {
		return p.fail(err)
	}
	if !ok {
		return nil, false, nil
	}
	p.out.reset()
	for _, t := range batch {
		nt := p.out.add()
		nt.Types = t.Types
		for i, at := range p.src {
			if at >= 0 {
				nt.Vals[i] = t.Vals[at]
			} else {
				nt.Vals[i] = p.lits[i]
			}
		}
	}
	p.emit(len(batch))
	return p.out.tuples, true, nil
}

func (p *projectIter) Close() error {
	if p.closed {
		return nil
	}
	p.closed = true
	err := p.in.Close()
	p.out.free()
	p.finish()
	return err
}

// unionIter drains its inputs in order. An input laid out like the
// union's output passes its batches through; any other (same columns in
// another order, or other subjects) is copied into the union's layout
// through the positions resolved at open.
type unionIter struct {
	opBase
	inputs []operator
	cur    int
	// per input: the input position of each output column and subject,
	// nil when the input's layout already is the output's.
	colFrom, subjFrom [][]int
	out               arena
}

// layout resolves every input against the output columns and the union
// of the inputs' subjects.
func (u *unionIter) layout() {
	for _, in := range u.inputs {
		for _, s := range in.subjects() {
			if !slices.Contains(u.subj, s) {
				u.subj = append(u.subj, s)
			}
		}
	}
	u.out = arena{width: len(u.cols), nsubj: len(u.subj)}
	for _, in := range u.inputs {
		if slices.Equal(in.Cols(), u.cols) && slices.Equal(in.subjects(), u.subj) {
			u.colFrom, u.subjFrom = append(u.colFrom, nil), append(u.subjFrom, nil)
			continue
		}
		u.colFrom = append(u.colFrom, positions(u.cols, colIndex(in.Cols())))
		u.subjFrom = append(u.subjFrom, positions(u.subj, colIndex(in.subjects())))
	}
}

func (u *unionIter) Next() ([]Tuple, bool, error) {
	if t, ok, err, handled := u.gate(); handled {
		return t, ok, err
	}
	for u.cur < len(u.inputs) {
		batch, ok, err := u.inputs[u.cur].Next()
		if err != nil {
			return u.fail(err)
		}
		if !ok {
			u.cur++
			continue
		}
		if from := u.colFrom[u.cur]; from != nil {
			sfrom := u.subjFrom[u.cur]
			u.out.reset()
			for _, t := range batch {
				nt := u.out.add()
				for i, at := range from {
					nt.Vals[i] = t.Vals[at]
				}
				for i, at := range sfrom {
					nt.Types[i] = ""
					if at >= 0 {
						nt.Types[i] = t.Types[at]
					}
				}
			}
			batch = u.out.tuples
		}
		u.emit(len(batch))
		return batch, true, nil
	}
	return nil, false, nil
}

func (u *unionIter) closeInputs() error {
	var first error
	for _, in := range u.inputs {
		if err := in.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (u *unionIter) Close() error {
	if u.closed {
		return nil
	}
	u.closed = true
	err := u.closeInputs()
	u.out.free()
	u.finish()
	return err
}

func sameColSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[string]bool, len(a))
	for _, x := range a {
		set[x] = true
	}
	for _, x := range b {
		if !set[x] {
			return false
		}
	}
	return true
}
