package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ormkit/incmap/internal/core"
	"github.com/ormkit/incmap/internal/fault"
	"github.com/ormkit/incmap/internal/faultinject"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/pipeline"
	"github.com/ormkit/incmap/internal/store"
)

// tenant is one registered model: a session, a bounded evolve queue
// drained by a single worker goroutine, and a serving-state mirror that
// read handlers hit without touching the session. The single worker per
// tenant serializes that tenant's evolves (matching the session's own
// evolveMu) while tenants evolve concurrently with one another, throttled
// only by the server's global compile semaphore.
type tenant struct {
	name    string
	session *pipeline.Session
	budget  fault.Budget
	srv     *Server

	// queue is the bounded admission queue. Admission never blocks: a
	// full queue sheds synchronously with 429.
	queue chan *evolveReq
	// drainCh closes when the server drains; done closes when the worker
	// has shed the queue remainder and exited.
	drainCh   chan struct{}
	drainOnce sync.Once
	done      chan struct{}

	// genMu guards gen, the serving-state mirror. Only the worker (and
	// setCommitted during registration/restore) writes it; reads are
	// lock-cheap and coherent — generation number, fingerprint and
	// staleness always belong to the same commit.
	genMu sync.RWMutex
	gen   genState

	// evolveEWMA tracks the recent average evolve duration in
	// nanoseconds (atomic), seeding the deadline-aware admission
	// estimate. Zero until the first evolve completes.
	evolveEWMA atomic.Int64

	// Counters (atomic).
	evolves    atomic.Int64
	errors     atomic.Int64
	shed       atomic.Int64
	reads      atomic.Int64
	staleReads atomic.Int64

	// dataMu guards the tenant's data plane: data is the installed store
	// state with its summary and cross-version context (never nil; only
	// installDataLocked replaces it), and frozen marks the backfill
	// window, during which writes are rejected with 409 (reads continue
	// against data).
	dataMu sync.RWMutex
	data   *dataPlane
	frozen bool

	// roMu guards ro, the tenant's most recent rollout (at most one can be
	// active; a finished one stays for GET status until the next starts).
	roMu sync.Mutex
	ro   *rollout
}

// genState is one coherent serving snapshot.
type genState struct {
	m   *frag.Mapping
	v   *frag.Views
	gen int64
	fp  string
	// types, assocs and tables are the generation's sorted view names,
	// built once per committed generation for GET …/views.
	types, assocs, tables []string
	// stale marks that the latest requested evolve did not commit; the
	// served generation is the last one that did.
	stale       bool
	staleReason string
}

// newGenState builds the serving snapshot of a committed generation.
func newGenState(m *frag.Mapping, v *frag.Views, gen int64, fp string) genState {
	st := genState{m: m, v: v, gen: gen, fp: fp}
	if v != nil {
		st.types = sortedKeys(v.Query)
		st.assocs = sortedKeys(v.Assoc)
		st.tables = sortedKeys(v.Update)
	}
	return st
}

// evolveReq is one admitted evolve waiting for the tenant worker.
type evolveReq struct {
	ctx   context.Context
	op    core.SMO
	reply chan evolveResult
}

type evolveResult struct {
	status *TenantStatus
	err    *apiError
}

func (s *Server) newTenant(name string, sess *pipeline.Session, b fault.Budget) *tenant {
	t := &tenant{
		name:    name,
		session: sess,
		budget:  b,
		srv:     s,
		queue:   make(chan *evolveReq, s.opts.QueueDepth),
		drainCh: make(chan struct{}),
		done:    make(chan struct{}),
	}
	t.dataMu.Lock()
	t.installDataLocked(nil, nil, nil, false)
	t.dataMu.Unlock()
	go t.worker()
	return t
}

// setCommitted installs a serving snapshot (registration and restore; the
// worker uses commit).
func (t *tenant) setCommitted(m *frag.Mapping, v *frag.Views, gen int64, fp string) {
	st := newGenState(m, v, gen, fp)
	t.genMu.Lock()
	t.gen = st
	t.genMu.Unlock()
}

// serving returns the current coherent snapshot.
func (t *tenant) serving() genState {
	t.genMu.RLock()
	defer t.genMu.RUnlock()
	return t.gen
}

// status renders the tenant's wire status from the serving mirror.
func (t *tenant) status() *TenantStatus {
	st := t.serving()
	return &TenantStatus{
		Name:        t.name,
		Generation:  st.gen,
		Fingerprint: st.fp,
		Stale:       st.stale,
		StaleReason: st.staleReason,
		Evolves:     t.evolves.Load(),
		Errors:      t.errors.Load(),
		Shed:        t.shed.Load(),
		Reads:       t.reads.Load(),
		StaleReads:  t.staleReads.Load(),
		QueueDepth:  len(t.queue),
	}
}

// read records a read against the serving snapshot and returns it. Reads
// never fail: the worst case is an explicitly flagged stale generation.
func (t *tenant) read() genState {
	st := t.serving()
	t.reads.Add(1)
	if st.stale {
		t.staleReads.Add(1)
		mStaleServes.Add(1)
	}
	return st
}

// beginDrain signals the worker to shed the queue remainder and exit
// after the in-flight evolve (if any) finishes.
func (t *tenant) beginDrain() {
	t.drainOnce.Do(func() { close(t.drainCh) })
}

// admit applies the load-shedding ladder and either enqueues the request
// or rejects it — always before any compilation work:
//
//  1. an injected admission fault sheds (the overload drill);
//  2. a draining server rejects with 503;
//  3. a full queue sheds with 429 and a Retry-After estimated from the
//     tenant's recent evolve duration;
//  4. a deadline the queue cannot meet — estimated wait exceeds the
//     request's remaining time — sheds with 429 rather than letting the
//     request time out inside the queue holding a slot.
func (t *tenant) admit(req *evolveReq) *apiError {
	if err := faultinject.At(faultinject.SiteServerAdmit); err != nil {
		t.shed.Add(1)
		mShed.Add(1)
		return &apiError{status: http.StatusTooManyRequests, msg: fmt.Sprintf("admission: %v", err), retryAfter: t.retryAfter(1)}
	}
	if t.srv.draining.Load() {
		return errDraining
	}
	if ro := t.activeRollout(); ro != nil {
		// A staged generation owns the tenant's evolution until it cuts
		// over or rolls back; a conflicting evolve is a 409, not overload.
		return &apiError{
			status: http.StatusConflict,
			msg:    fmt.Sprintf("rollout %d in phase %q owns tenant %q; evolve after cutover or rollback", ro.snapshot().ID, ro.snapshot().Phase, t.name),
		}
	}
	// The hot config may have tightened the admission bound below the
	// channel capacity; admission honors the tighter of the two.
	if depth := t.effectiveDepth(); len(t.queue) >= depth {
		t.shed.Add(1)
		mShed.Add(1)
		return &apiError{
			status:     http.StatusTooManyRequests,
			msg:        fmt.Sprintf("tenant %q queue full (%d deep)", t.name, depth),
			retryAfter: t.retryAfter(depth),
		}
	}
	if wait, ok := t.estimatedWait(len(t.queue) + 1); ok {
		if dl, has := req.ctx.Deadline(); has && time.Until(dl) < wait {
			t.shed.Add(1)
			mShed.Add(1)
			return &apiError{
				status:     http.StatusTooManyRequests,
				msg:        fmt.Sprintf("estimated queue wait %s exceeds request deadline", wait.Round(time.Millisecond)),
				retryAfter: wait,
			}
		}
	}
	select {
	case t.queue <- req:
		return nil
	default:
		t.shed.Add(1)
		mShed.Add(1)
		return &apiError{
			status:     http.StatusTooManyRequests,
			msg:        fmt.Sprintf("tenant %q queue full (%d deep)", t.name, cap(t.queue)),
			retryAfter: t.retryAfter(cap(t.queue)),
		}
	}
}

// effectiveDepth is the admission bound: the hot-config depth, clamped to
// the channel capacity fixed at registration.
func (t *tenant) effectiveDepth() int {
	depth := t.srv.cfg().queueDepth
	if depth <= 0 || depth > cap(t.queue) {
		depth = cap(t.queue)
	}
	return depth
}

// activeRollout returns the tenant's rollout if one is still running.
func (t *tenant) activeRollout() *rollout {
	t.roMu.Lock()
	defer t.roMu.Unlock()
	if t.ro != nil && !t.ro.finished() {
		return t.ro
	}
	return nil
}

// lastRollout returns the most recent rollout, finished or not.
func (t *tenant) lastRollout() *rollout {
	t.roMu.Lock()
	defer t.roMu.Unlock()
	return t.ro
}

// estimatedWait projects how long n queued evolves will take from the
// EWMA of recent evolve durations. Before the first completed evolve
// there is no estimate (ok=false): the queue bound alone sheds.
func (t *tenant) estimatedWait(n int) (time.Duration, bool) {
	ewma := t.evolveEWMA.Load()
	if ewma <= 0 {
		return 0, false
	}
	return time.Duration(ewma) * time.Duration(n), true
}

// retryAfter suggests when the caller should try again: the projected
// time to drain n queue slots, at least one second (the HTTP header has
// whole-second resolution).
func (t *tenant) retryAfter(n int) time.Duration {
	if wait, ok := t.estimatedWait(n); ok && wait > time.Second {
		return wait
	}
	return time.Second
}

// worker is the tenant's single evolve loop. It exists so that a panic, a
// budget exhaustion or an injected fault in one tenant's compile is
// contained to that tenant: the worker recovers, flags the serving state
// stale, answers the request, and keeps going.
func (t *tenant) worker() {
	defer close(t.done)
	for {
		// Priority check: once drain is signalled, no further queued
		// evolve starts (select alone would pick randomly between a
		// closed drainCh and a non-empty queue).
		select {
		case <-t.drainCh:
			t.shedQueue()
			return
		default:
		}
		select {
		case <-t.drainCh:
			t.shedQueue()
			return
		case req := <-t.queue:
			res := t.process(req)
			req.reply <- res
		}
	}
}

// shedQueue rejects everything still queued at drain time. In-flight work
// has already finished (the worker processes one request at a time).
func (t *tenant) shedQueue() {
	for {
		select {
		case req := <-t.queue:
			t.shed.Add(1)
			mShed.Add(1)
			req.reply <- evolveResult{err: errDraining}
		default:
			return
		}
	}
}

// process runs one admitted evolve under the global compile semaphore and
// the tenant's timeout, converting every failure mode — cancellation
// while queued, compile errors, panics — into a stale-but-serving state
// and a typed API error.
func (t *tenant) process(req *evolveReq) evolveResult {
	select {
	case t.srv.sem <- struct{}{}:
	case <-req.ctx.Done():
		t.errors.Add(1)
		mEvolveErrors.Add(1)
		t.markStale("timed out waiting for a compile slot")
		return evolveResult{err: &apiError{status: http.StatusGatewayTimeout, msg: "timed out waiting for a compile slot"}}
	}
	defer func() { <-t.srv.sem }()

	start := time.Now()
	err := t.evolveOne(req.ctx, req.op)
	t.observeDuration(time.Since(start))

	t.evolves.Add(1)
	if err != nil {
		if err.status == http.StatusConflict {
			// A rollout owns the session: the request lost a race, the
			// tenant's serving state is exactly as fresh as before.
			return evolveResult{status: t.status(), err: err}
		}
		t.errors.Add(1)
		mEvolveErrors.Add(1)
		t.markStale(err.Error())
		return evolveResult{status: t.status(), err: err}
	}
	return evolveResult{status: t.status(), err: nil}
}

// evolveOne applies one SMO through the session's fallback ladder,
// recovering panics from anywhere in the handler path (including the
// injected SiteServerHandler fault) so a poisonous SMO degrades the
// tenant instead of killing the daemon.
func (t *tenant) evolveOne(ctx context.Context, op core.SMO) (apiErr *apiError) {
	defer func() {
		if r := recover(); r != nil {
			mHandlerPanics.Add(1)
			apiErr = compileError("evolve", &fault.PanicError{Where: "evolve handler", Value: r, Stack: debug.Stack()})
		}
	}()
	if err := faultinject.At(faultinject.SiteServerHandler); err != nil {
		return compileError("evolve", err)
	}
	m, v, err := t.session.Evolve(ctx, op)
	if err != nil {
		if errors.Is(err, pipeline.ErrPendingGeneration) {
			// Raced a rollout past admission: a conflict, not a compile
			// failure — the tenant is not stale, the client must wait.
			return &apiError{status: http.StatusConflict, msg: fmt.Sprintf("evolve: %v", err)}
		}
		return compileError("evolve", err)
	}
	t.commit(m, v)
	return nil
}

// commit advances the serving mirror to the newly committed generation
// and clears any staleness, then refreshes the persisted manifest.
func (t *tenant) commit(m *frag.Mapping, v *frag.Views) {
	fp, _ := store.Fingerprint(m)
	st := newGenState(m, v, 0, fp)
	t.genMu.Lock()
	st.gen = t.gen.gen + 1
	t.gen = st
	t.genMu.Unlock()
	_ = t.srv.saveManifest()
}

// markStale flags the serving state: the generation is unchanged (the
// session kept the pre-SMO generation) but the client's last requested
// evolution did not land.
func (t *tenant) markStale(reason string) {
	t.genMu.Lock()
	t.gen.stale = true
	t.gen.staleReason = reason
	t.genMu.Unlock()
}

// observeDuration folds one evolve duration into the EWMA (α = 1/4).
func (t *tenant) observeDuration(d time.Duration) {
	for {
		old := t.evolveEWMA.Load()
		var next int64
		if old == 0 {
			next = int64(d)
		} else {
			next = old + (int64(d)-old)/4
		}
		if t.evolveEWMA.CompareAndSwap(old, next) {
			return
		}
	}
}

// Evolve admits, queues and waits for one SMO against the tenant.
func (t *tenant) Evolve(ctx context.Context, op core.SMO) (*TenantStatus, *apiError) {
	req := &evolveReq{ctx: ctx, op: op, reply: make(chan evolveResult, 1)}
	if err := t.admit(req); err != nil {
		return nil, err
	}
	select {
	case res := <-req.reply:
		return res.status, res.err
	case <-ctx.Done():
		// The worker will still process the request (the queue slot is
		// taken); the buffered reply channel lets it complete without us.
		return nil, &apiError{status: http.StatusGatewayTimeout, msg: "evolve timed out in queue"}
	}
}
