package exec

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/obsv"
)

// largeBuildRows is the held-row count past which a hash-join build is
// counted in exec.join.large_builds. Rows stay in memory either way.
const largeBuildRows = 1 << 16

// joinIter is a streaming hash join with the same semantics as the
// materializing evaluator: the right input is the build side (drained
// fully into a hash index on first pull), the left input streams through
// as probe. Tuples with a NULL join key never match; merging keeps the
// left tuple's values on column collision and errors on conflicting
// subject types; LeftOuter/FullOuter emit unmatched probe tuples padded
// with NULLs; FullOuter additionally emits unmatched build tuples once
// the probe side is exhausted. Only the build side is held in memory,
// copied out of its batches into flat slices.
type joinIter struct {
	opBase
	l, r  operator
	kind  cqt.JoinKind
	batch int

	// Positions resolved at open. lKey/rKey locate the key columns in the
	// probe and build layouts; fromL/fromR and subjL/subjR locate each
	// output column and subject on either side. -1 means absent (a key
	// column absent from its side is always NULL).
	lKey, rKey   []int
	fromL, fromR []int
	subjL, subjR []int

	built  bool
	rw, rs int   // build tuple width and subject count
	nb     int   // build tuples held
	build  *slab // their values and types, copied out of the input batches
	// The index maps a key to the first and last build tuple holding it;
	// next chains the rest in build order. A one-column key is the
	// normalized value itself (ints holds the integer ones, the common
	// case, one the rest); a wider key is its compact encoding.
	ints    map[int64]chain
	one     map[cond.Value]chain
	many    map[string]chain
	next    []int32
	keyBuf  []byte
	matched []bool

	out arena

	// drain walks unmatched build tuples after probe exhaustion (FullOuter).
	draining bool
	drainAt  int
}

type chain struct{ first, last int32 }

func openJoin(ctx context.Context, env *Env, j cqt.Join, opts Options, parent *obsv.Span) (operator, error) {
	l, err := open(ctx, env, j.L, opts, parent)
	if err != nil {
		return nil, err
	}
	r, err := open(ctx, env, j.R, opts, parent)
	if err != nil {
		_ = l.Close()
		return nil, err
	}
	// The output carries each column once, left first. Shared column
	// names must be equated by the join (same check as the materializing
	// evaluator, made at open time here).
	lIdx, rIdx := colIndex(l.Cols()), colIndex(r.Cols())
	var cols []string
	for _, c := range append(slices.Clip(l.Cols()), r.Cols()...) {
		if !slices.Contains(cols, c) {
			cols = append(cols, c)
		}
	}
	for _, c := range r.Cols() {
		if _, shared := lIdx[c]; shared && !slices.Contains(j.On, [2]string{c, c}) {
			_, _ = l.Close(), r.Close()
			return nil, fmt.Errorf("cqt: join inputs share column %q without equating it", c)
		}
	}
	lOn := make([]string, len(j.On))
	rOn := make([]string, len(j.On))
	for i, p := range j.On {
		lOn[i], rOn[i] = p[0], p[1]
	}
	subj := slices.Clone(l.subjects())
	for _, s := range r.subjects() {
		if !slices.Contains(subj, s) {
			subj = append(subj, s)
		}
	}
	lSubj, rSubj := colIndex(l.subjects()), colIndex(r.subjects())
	return &joinIter{
		opBase: opBase{cols: cols, subj: subj, sp: parent.Child("exec.join", obsv.String("kind", joinKindName(j.Kind)))},
		l:      l, r: r, kind: j.Kind, batch: opts.batch(),
		lKey: positions(lOn, lIdx), rKey: positions(rOn, rIdx),
		fromL: positions(cols, lIdx), fromR: positions(cols, rIdx),
		subjL: positions(subj, lSubj), subjR: positions(subj, rSubj),
		rw: len(r.Cols()), rs: len(r.subjects()),
		out: arena{width: len(cols), nsubj: len(subj)},
	}, nil
}

func joinKindName(k cqt.JoinKind) string {
	switch k {
	case cqt.LeftOuter:
		return "left-outer"
	case cqt.FullOuter:
		return "full-outer"
	}
	return "inner"
}

// nanKey is the one key every NaN normalizes to.
var nanKey = cond.Value{K: -2}

// keyAt returns the join key of the value at pos, normalized so that two
// keys are equal exactly when the materializing evaluator's rendered
// keys (cond.Value.String) are: an integral float below 1e6 renders as
// the integer does, and every NaN renders alike. ok is false for NULL.
func keyAt(vals []cond.Value, pos int) (cond.Value, bool) {
	if pos < 0 || isNull(vals[pos]) {
		return cond.Value{}, false
	}
	v := vals[pos]
	if v.K != cond.KindFloat {
		return v, true
	}
	switch f := v.FloatVal(); {
	case math.IsNaN(f):
		return nanKey, true
	case f == math.Trunc(f) && math.Abs(f) < 1e6 && !(f == 0 && math.Signbit(f)):
		return cond.Int(int64(f)), true
	}
	return v, true
}

// appendKey appends the compact encoding of a multi-column key: per
// column its normalized kind and payload. ok is false when any column is
// NULL.
func appendKey(b []byte, vals []cond.Value, pos []int) ([]byte, bool) {
	for _, p := range pos {
		v, ok := keyAt(vals, p)
		if !ok {
			return b, false
		}
		b = append(b, byte(v.K))
		switch v.K {
		case cond.KindString:
			b = binary.AppendUvarint(b, uint64(len(v.Str())))
			b = append(b, v.Str()...)
		case cond.KindInt:
			b = binary.LittleEndian.AppendUint64(b, uint64(v.IntVal()))
		case cond.KindFloat:
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.FloatVal()))
		case cond.KindBool:
			if v.BoolVal() {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		}
	}
	return b, true
}

// find returns the first build tuple whose key equals the key at pos in
// vals, or -1.
func (j *joinIter) find(vals []cond.Value, pos []int) int32 {
	var c chain
	var hit bool
	if len(pos) == 1 {
		k, ok := keyAt(vals, pos[0])
		switch {
		case !ok:
			return -1
		case k.K == cond.KindInt:
			c, hit = j.ints[k.IntVal()]
		default:
			c, hit = j.one[k]
		}
	} else {
		b, ok := appendKey(j.keyBuf[:0], vals, pos)
		j.keyBuf = b
		if !ok {
			return -1
		}
		c, hit = j.many[string(b)]
	}
	if !hit {
		return -1
	}
	return c.first
}

// link appends build tuple i to its key's chain.
func link[K comparable](m map[K]chain, next []int32, k K, i int32) {
	c, dup := m[k]
	if dup {
		next[c.last] = i
		c.last = i
	} else {
		c = chain{i, i}
	}
	m[k] = c
}

// buildIndex drains the build (right) input, copying its tuples into
// flat slices, then indexes them by key.
func (j *joinIter) buildIndex() error {
	j.build = slabs.Get().(*slab)
	for {
		batch, ok, err := j.r.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		for _, t := range batch {
			j.build.vals = append(j.build.vals, t.Vals...)
			j.build.types = append(j.build.types, t.Types...)
		}
		j.nb += len(batch)
	}
	j.next = make([]int32, j.nb)
	if len(j.rKey) == 1 {
		j.ints = make(map[int64]chain, j.nb)
	} else {
		j.many = make(map[string]chain, j.nb)
	}
	for i := range j.nb {
		j.next[i] = -1
		vals := j.build.vals[i*j.rw : (i+1)*j.rw]
		if len(j.rKey) == 1 {
			k, ok := keyAt(vals, j.rKey[0])
			switch {
			case !ok:
			case k.K == cond.KindInt:
				link(j.ints, j.next, k.IntVal(), int32(i))
			default:
				if j.one == nil {
					j.one = map[cond.Value]chain{}
				}
				link(j.one, j.next, k, int32(i))
			}
			continue
		}
		var ok bool
		if j.keyBuf, ok = appendKey(j.keyBuf[:0], vals, j.rKey); ok {
			link(j.many, j.next, string(j.keyBuf), int32(i))
		}
	}
	if j.kind == cqt.FullOuter {
		j.matched = make([]bool, j.nb)
	}
	j.built = true
	obsv.Add(obsv.MExecJoinBuildRows, int64(j.nb))
	j.sp.Annotate(obsv.String("build_rows", fmt.Sprint(j.nb)))
	if j.nb > largeBuildRows {
		obsv.Add(obsv.MExecJoinLargeBuilds, 1)
		j.sp.Annotate(obsv.String("large_build", "true"))
	}
	// The build input is exhausted; release it now so a long probe phase
	// does not pin its resources.
	return j.r.Close()
}

func pick(types []string, pos int) string {
	if pos < 0 {
		return ""
	}
	return types[pos]
}

// put appends the merge of probe tuple l (nil: none) and build tuple ri
// (-1: none) to the output batch. Missing sides read as NULL; the probe
// side's values win on collision.
func (j *joinIter) put(l *Tuple, ri int) error {
	var rv []cond.Value
	var rt []string
	if ri >= 0 {
		rv, rt = j.build.vals[ri*j.rw:(ri+1)*j.rw], j.build.types[ri*j.rs:(ri+1)*j.rs]
	}
	t := j.out.add()
	for s := range t.Types {
		var lt, rty string
		if l != nil {
			lt = pick(l.Types, j.subjL[s])
		}
		if ri >= 0 {
			rty = pick(rt, j.subjR[s])
		}
		if lt != "" && rty != "" && lt != rty {
			return fmt.Errorf("cqt: join merges conflicting subject types %q/%q", lt, rty)
		}
		if lt == "" {
			lt = rty
		}
		t.Types[s] = lt
	}
	for c := range t.Vals {
		v := null
		if p := j.fromL[c]; l != nil && p >= 0 {
			v = l.Vals[p]
		}
		if p := j.fromR[c]; isNull(v) && ri >= 0 && p >= 0 {
			v = rv[p]
		}
		t.Vals[c] = v
	}
	return nil
}

func (j *joinIter) Next() ([]Tuple, bool, error) {
	if t, ok, err, handled := j.gate(); handled {
		return t, ok, err
	}
	if !j.built {
		if err := j.buildIndex(); err != nil {
			return j.fail(err)
		}
	}
	outer := j.kind == cqt.LeftOuter || j.kind == cqt.FullOuter
	for !j.draining {
		batch, ok, err := j.l.Next()
		if err != nil {
			return j.fail(err)
		}
		if !ok {
			if j.kind == cqt.FullOuter {
				j.draining = true
				break
			}
			return nil, false, nil
		}
		j.out.reset()
		for i := range batch {
			l := &batch[i]
			matchedAny := false
			for ri := j.find(l.Vals, j.lKey); ri >= 0; ri = j.next[ri] {
				if err := j.put(l, int(ri)); err != nil {
					return j.fail(err)
				}
				matchedAny = true
				if j.matched != nil {
					j.matched[ri] = true
				}
			}
			if !matchedAny && outer {
				if err := j.put(l, -1); err != nil {
					return j.fail(err)
				}
			}
		}
		if len(j.out.tuples) == 0 {
			continue
		}
		j.emit(len(j.out.tuples))
		return j.out.tuples, true, nil
	}
	// FullOuter tail: unmatched build tuples, at most a batch at a time.
	j.out.reset()
	for j.drainAt < j.nb && len(j.out.tuples) < j.batch {
		i := j.drainAt
		j.drainAt++
		if !j.matched[i] {
			if err := j.put(nil, i); err != nil {
				return j.fail(err)
			}
		}
	}
	if len(j.out.tuples) == 0 {
		return nil, false, nil
	}
	j.emit(len(j.out.tuples))
	return j.out.tuples, true, nil
}

func (j *joinIter) Close() error {
	if j.closed {
		return nil
	}
	j.closed = true
	errL := j.l.Close()
	errR := j.r.Close() // idempotent if build already closed it
	j.build.release()
	j.build, j.ints, j.one, j.many, j.next, j.matched = nil, nil, nil, nil, nil, nil
	j.out.free()
	j.finish()
	if errL != nil {
		return errL
	}
	return errR
}
