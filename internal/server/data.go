package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"github.com/ormkit/incmap/internal/exec"
	"github.com/ormkit/incmap/internal/modelio"
	"github.com/ormkit/incmap/internal/orm"
	"github.com/ormkit/incmap/internal/state"
	"github.com/ormkit/incmap/internal/xver"
)

// Per-tenant data plane. The daemon is a mapping compiler, not a database,
// but the rollout engine's guarantees — version-k clients reading and
// writing during and after a rollout, zero data loss across cutover,
// rollback restoring the prior store verbatim — are claims about rows, so
// each tenant carries a small in-memory store state: synthetic entities
// materialized through the serving generation's update views, persisted as
// a manifest so restarts (and mid-backfill crashes) keep it.
//
//	POST /v1/tenants/{name}/data  {"seed": n, "maxPerType": n, "version": "current"|"prev"}
//	GET  /v1/tenants/{name}/data  [?version=prev]
//
// A write generates a random client state for the chosen version's model
// and replaces the tenant's rows with its materialization — version "prev"
// (valid once a rollout has cut over) drives the old generation's update
// views and the cross-version transform, exercising the paper's
// version-k-writer-against-version-k+1-store path. Reads never fail: the
// worst case is row counts against a stale generation. They answer from
// the summary computed when the rows were installed (dataPlane).

// dataManifestName keys a tenant's persisted row store.
func dataManifestName(tenant string) string { return "data-" + manifestKey(tenant) }

// manifestKey squeezes a tenant name into the store's 64-char manifest
// alphabet, leaving room for prefixes; long names get a stable digest.
func manifestKey(name string) string {
	if len(name) <= 40 {
		return name
	}
	sum := sha256.Sum256([]byte(name))
	return name[:24] + "-" + hex.EncodeToString(sum[:8])
}

// dataRequest is the POST body.
type dataRequest struct {
	Seed       uint32 `json:"seed"`
	MaxPerType int    `json:"maxPerType,omitempty"`
	// Version selects which generation's model the synthetic writer
	// speaks: "current" (default) or "prev" (the pre-cutover generation,
	// routed through the cross-version write views).
	Version string `json:"version,omitempty"`
}

// dataResponse summarizes the tenant's rows.
type dataResponse struct {
	Tenant     string         `json:"tenant"`
	Generation int64          `json:"generation"`
	Version    string         `json:"version"`
	Tables     map[string]int `json:"tables"`
	TotalRows  int            `json:"totalRows"`
	// Checksum is the SHA-256 of the store's canonical encoding: two
	// identical states always produce the same checksum, so soak drivers
	// compare states across restarts and rollbacks without shipping rows.
	Checksum string `json:"checksum"`
	// Entities (version=prev reads) counts entities per set as the old
	// version sees them through the cross-version read views.
	Entities map[string]int `json:"entities,omitempty"`
	Frozen   bool           `json:"frozen,omitempty"`
}

// dataPlane is one installed store state as reads see it: the rows, the
// cross-version context they were installed with, and the summary every
// GET /data answers from. installDataLocked builds it once per install
// and swaps it in whole; nothing mutates it afterwards except the lazily
// filled cross-entity counts, which are a pure function of plan and rows.
// Installed rows are never written again (writers build a fresh state and
// install that), so the summary can never go stale and readers share the
// plane without copying or hashing anything.
type dataPlane struct {
	rows *state.StoreState
	// prev is the frozen pre-cutover store, kept while plan lets
	// version-k clients read and write the version-k+1 rows.
	prev *state.StoreState
	plan *xver.Plan

	tables   map[string]int
	total    int
	checksum string

	crossMu sync.Mutex
	cross   map[string]int
}

// crossEntities counts entities per set as a version-k client sees the
// rows through the cross-version read views, streaming each restricted
// constructor instead of materializing the projected client state. The
// counts are computed on first use and kept; a failed count (nil) is
// retried by the next read, so a transient scan fault does not stick.
func (p *dataPlane) crossEntities() map[string]int {
	p.crossMu.Lock()
	defer p.crossMu.Unlock()
	if p.cross == nil {
		if ents, err := p.plan.CountEntitiesStream(context.Background(), exec.NewMapStore(p.rows), exec.Options{}); err == nil {
			p.cross = ents
		}
	}
	return p.cross
}

// installDataLocked is the data plane's one install path, and install
// time the one place the daemon hashes rows: it summarizes the new rows
// (nil summarizes as the empty store), swaps the plane in whole and, when
// persist is set, snapshots the rows to the store (best-effort; the
// manifest write is checksummed and a damaged record reads as empty).
// Callers hold dataMu and hand over rows nobody mutates afterwards.
func (t *tenant) installDataLocked(rows, prev *state.StoreState, plan *xver.Plan, persist bool) *dataPlane {
	p := &dataPlane{rows: rows, prev: prev, plan: plan}
	var ts exec.TableStore
	if rows != nil {
		ts = exec.NewMapStore(rows)
	}
	p.tables, p.total, p.checksum = streamSummarize(context.Background(), ts)
	t.data = p
	if persist && t.srv.opts.Store != nil {
		if payload, err := modelio.EncodeRows(rows); err == nil {
			_ = t.srv.opts.Store.SaveManifest(dataManifestName(t.name), payload)
		}
	}
	return p
}

// dataSnapshot returns the installed data plane and the backfill freeze
// flag, coherently.
func (t *tenant) dataSnapshot() (*dataPlane, bool) {
	t.dataMu.RLock()
	defer t.dataMu.RUnlock()
	return t.data, t.frozen
}

// handleDataGet answers from the installed plane's summary: no row is
// scanned or hashed here.
func (s *Server) handleDataGet(w http.ResponseWriter, r *http.Request) {
	t, ok := s.lookup(r.PathValue("name"))
	if !ok {
		writeError(w, notFound(r.PathValue("name")))
		return
	}
	st := t.read()
	p, frozen := t.dataSnapshot()
	resp := &dataResponse{
		Tenant:     t.name,
		Generation: st.gen,
		Version:    "current",
		Tables:     p.tables,
		TotalRows:  p.total,
		Checksum:   p.checksum,
		Frozen:     frozen,
	}
	// Before a cutover "prev" is just the serving store. After one, a
	// version-k client reading the version-k+1 store also gets entity
	// counts through the cross-version read views; reads never 5xx, so a
	// cross-read failure degrades to the raw table counts.
	if r.URL.Query().Get("version") == "prev" {
		resp.Version = "prev"
		if p.plan != nil && p.prev != nil {
			resp.Entities = p.crossEntities()
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDataPost(w http.ResponseWriter, r *http.Request) {
	t, ok := s.lookup(r.PathValue("name"))
	if !ok {
		writeError(w, notFound(r.PathValue("name")))
		return
	}
	var req dataRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.MaxPerType <= 0 {
		req.MaxPerType = 3
	}
	if req.Version == "" {
		req.Version = "current"
	}
	resp, aerr := t.writeData(req)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// writeData materializes a synthetic client state into the tenant's store
// through the views the requested version owns.
func (t *tenant) writeData(req dataRequest) (*dataResponse, *apiError) {
	t.dataMu.Lock()
	defer t.dataMu.Unlock()
	if t.frozen {
		return nil, &apiError{
			status: http.StatusConflict,
			msg:    fmt.Sprintf("tenant %q data is frozen for backfill; retry after cutover", t.name),
		}
	}
	st := t.serving()
	if st.m == nil || st.v == nil {
		return nil, &apiError{status: http.StatusConflict, msg: "tenant has no compiled generation"}
	}

	var next *state.StoreState
	switch req.Version {
	case "current":
		cs := orm.RandomState(st.m, req.Seed, req.MaxPerType)
		next = state.NewStoreState()
		if err := orm.MaterializeStream(context.Background(), st.m, st.v, cs, exec.NewMapStore(next), exec.Options{}); err != nil {
			return nil, &apiError{status: http.StatusUnprocessableEntity, msg: fmt.Sprintf("materialize: %v", err)}
		}
	case "prev":
		if t.data.plan == nil {
			return nil, &apiError{status: http.StatusConflict, msg: "no cross-version plan: tenant has not cut over"}
		}
		// The old version's writer: random state over the OLD model,
		// materialized through the OLD update views, then transformed to
		// the new layout (gap columns filled per strategy).
		cs := orm.RandomState(t.data.plan.From.M, req.Seed, req.MaxPerType)
		ss, err := t.data.plan.WriteClient(cs)
		if err != nil {
			return nil, &apiError{status: http.StatusUnprocessableEntity, msg: fmt.Sprintf("cross-version write: %v", err)}
		}
		next = ss
	default:
		return nil, &apiError{status: http.StatusBadRequest, msg: strconv.Quote(req.Version) + " is not a version (want current or prev)"}
	}

	p := t.installDataLocked(next, t.data.prev, t.data.plan, true)
	return &dataResponse{
		Tenant:     t.name,
		Generation: st.gen,
		Version:    req.Version,
		Tables:     p.tables,
		TotalRows:  p.total,
		Checksum:   p.checksum,
	}, nil
}

// restoreData loads the persisted data plane, if any. Called during tenant
// restore before the daemon serves.
func (t *tenant) restoreData() {
	if t.srv.opts.Store == nil {
		return
	}
	payload, err := t.srv.opts.Store.LoadManifest(dataManifestName(t.name))
	if err != nil {
		return
	}
	if ss, err := modelio.DecodeRows(payload); err == nil {
		// The store already holds these rows: install without persisting.
		t.dataMu.Lock()
		t.installDataLocked(ss, nil, nil, false)
		t.dataMu.Unlock()
	}
}
