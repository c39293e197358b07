package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ormkit/incmap/internal/exec"
	"github.com/ormkit/incmap/internal/faultinject"
	"github.com/ormkit/incmap/internal/modelio"
	"github.com/ormkit/incmap/internal/orm"
	"github.com/ormkit/incmap/internal/state"
)

// summaryOf is the reference summary: streamSummarize over rows, scanned
// now.
func summaryOf(rows *state.StoreState) (map[string]int, int, string) {
	if rows == nil {
		return streamSummarize(context.Background(), nil)
	}
	return streamSummarize(context.Background(), exec.NewMapStore(rows))
}

// checkDataFresh asserts the tenant's reads agree with its installed rows:
// GET /data (current and version=prev) reports the tables, total and
// checksum a fresh scan of the rows produces, version=prev entity counts
// after a cutover equal a fresh cross-version count, the persisted data
// record (when the daemon has a store) holds the same rows, and GET
// …/views serves the generation's sorted view names. It returns the
// current checksum.
func checkDataFresh(t *testing.T, srv *Server, base, name string) string {
	t.Helper()
	tn, ok := srv.lookup(name)
	if !ok {
		t.Fatalf("no tenant %q", name)
	}
	p, _ := tn.dataSnapshot()
	tables, total, sum := summaryOf(p.rows)
	for _, q := range []string{"", "?version=prev"} {
		got := getData(t, base, name, q)
		if !reflect.DeepEqual(got.Tables, tables) || got.TotalRows != total || got.Checksum != sum {
			t.Fatalf("GET data%s = %d rows %s %v, fresh scan = %d rows %s %v",
				q, got.TotalRows, got.Checksum, got.Tables, total, sum, tables)
		}
		if q == "" || p.plan == nil {
			continue
		}
		want, err := p.plan.CountEntitiesStream(context.Background(), exec.NewMapStore(p.rows), exec.Options{})
		if err != nil {
			t.Fatalf("fresh cross-version count: %v", err)
		}
		if !reflect.DeepEqual(got.Entities, want) {
			t.Fatalf("GET data?version=prev entities %v, fresh count %v", got.Entities, want)
		}
	}
	if st := srv.opts.Store; st != nil && p.rows != nil {
		payload, err := st.LoadManifest(dataManifestName(name))
		if err != nil {
			t.Fatalf("loading persisted rows: %v", err)
		}
		stored, err := modelio.DecodeRows(payload)
		if err != nil {
			t.Fatalf("decoding persisted rows: %v", err)
		}
		if _, _, ps := summaryOf(stored); ps != sum {
			t.Fatalf("persisted rows checksum %s, serving %s", ps, sum)
		}
	}
	gs := tn.serving()
	vr, code := readViews(t, base, name)
	if code != http.StatusOK {
		t.Fatalf("GET views: status %d", code)
	}
	if !reflect.DeepEqual(vr.Types, sortedKeys(gs.v.Query)) || !reflect.DeepEqual(vr.Assocs, sortedKeys(gs.v.Assoc)) ||
		!reflect.DeepEqual(vr.Tables, sortedKeys(gs.v.Update)) {
		t.Fatalf("GET views does not serve generation %d's sorted view names", gs.gen)
	}
	return sum
}

func postData(t *testing.T, base, name string, body map[string]any) dataResponse {
	t.Helper()
	var resp dataResponse
	if hr := doJSON(t, "POST", fmt.Sprintf("%s/v1/tenants/%s/data", base, name), body, &resp); hr.StatusCode != http.StatusOK {
		t.Fatalf("POST data %v: status %d", body, hr.StatusCode)
	}
	return resp
}

// fetchData is a data request that reports failure instead of failing
// the test, for use off the test goroutine.
func fetchData(method, url, body string) (dataResponse, error) {
	var resp dataResponse
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return resp, err
	}
	hr, err := http.DefaultClient.Do(req)
	if err != nil {
		return resp, err
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		return resp, fmt.Errorf("%s %s: status %d", method, url, hr.StatusCode)
	}
	return resp, json.NewDecoder(hr.Body).Decode(&resp)
}

// TestDataChecksumGolden pins the wire checksum of seeded data: the
// summary's definition (a multiset fold over Row.Canonical) must not
// drift, whichever evaluator writes the rows.
func TestDataChecksumGolden(t *testing.T) {
	srv, ts := testDaemon(t, Options{})
	registerChain(t, ts.URL, "g10", "g10", 10)
	resp := postData(t, ts.URL, "g10", map[string]any{"seed": 7, "maxPerType": 4})
	const want = "d6a22b15c99fabbe1ec314de569c6d43d533db0fdaf9be51d1fcbc2295a32d90"
	if resp.Checksum != want || resp.TotalRows != 23 {
		t.Fatalf("POST checksum %s (%d rows), want %s (23 rows)", resp.Checksum, resp.TotalRows, want)
	}
	if got := checkDataFresh(t, srv, ts.URL, "g10"); got != want {
		t.Fatalf("GET checksum %s, want %s", got, want)
	}
}

// TestDataPostMatchesMaterialize holds POST /data's streaming write to
// the materializing evaluator: for the same seed, the installed rows
// summarize exactly as orm.Materialize's do, for the current version and,
// after a cutover, for a version-k write through the cross-version path.
func TestDataPostMatchesMaterialize(t *testing.T) {
	srv, ts := testDaemon(t, Options{})
	registerChain(t, ts.URL, "dm", "dm", 6)
	tn, _ := srv.lookup("dm")
	gs := tn.serving()
	for _, seed := range []uint32{1, 2, 3} {
		resp := postData(t, ts.URL, "dm", map[string]any{"seed": seed, "maxPerType": 5})
		ss, err := orm.Materialize(gs.m, gs.v, orm.RandomState(gs.m, seed, 5))
		if err != nil {
			t.Fatal(err)
		}
		if _, total, sum := summaryOf(ss); resp.Checksum != sum || resp.TotalRows != total {
			t.Fatalf("seed %d: POST checksum %s (%d rows), Materialize %s (%d rows)", seed, resp.Checksum, resp.TotalRows, sum, total)
		}
	}

	startRollout(t, ts.URL, "dm", rolloutBody("dm", nil))
	if st := waitRollout(t, ts.URL, "dm"); st.Phase != phaseDone {
		t.Fatalf("rollout phase %q (%s)", st.Phase, st.Error)
	}
	p, _ := tn.dataSnapshot()
	resp := postData(t, ts.URL, "dm", map[string]any{"seed": 9, "maxPerType": 5, "version": "prev"})
	old, err := orm.Materialize(p.plan.From.M, p.plan.From.V, orm.RandomState(p.plan.From.M, 9, 5))
	if err != nil {
		t.Fatal(err)
	}
	moved, lost, err := p.plan.Transform(old)
	if err != nil || lost != 0 {
		t.Fatalf("transform: lost %d, %v", lost, err)
	}
	if _, total, sum := summaryOf(moved); resp.Checksum != sum || resp.TotalRows != total {
		t.Fatalf("version-k POST checksum %s (%d rows), Materialize+Transform %s (%d rows)", resp.Checksum, resp.TotalRows, sum, total)
	}
}

// fillGaps makes a rollout's migration change rows: the gap column the
// standard test rollout adds is filled with its domain's zero value
// instead of NULL, so every migrated row of the owning table differs.
var fillGaps = map[string]any{"strategies": map[string]any{"default": "default"}}

// TestDataSummaryCoherentAcrossInstalls walks every install path — POST
// (both versions), restart from the store, rollout cutover, post-cutover
// rollback and backfill resume after a crash — and after each checks that
// reads answer exactly what a fresh scan of the installed rows says, that
// the store holds those rows, and that the summaries belong to the right
// install (each step's data differs from the last).
func TestDataSummaryCoherentAcrossInstalls(t *testing.T) {
	dir := t.TempDir()
	srv, ts := testDaemon(t, Options{Store: testStore(t, dir)})
	registerChain(t, ts.URL, "dc", "dc", 4)
	empty := checkDataFresh(t, srv, ts.URL, "dc")

	// POST.
	seeded := postData(t, ts.URL, "dc", map[string]any{"seed": 7, "maxPerType": 4}).Checksum
	if seeded == empty {
		t.Fatal("seeding did not change the checksum")
	}
	if got := checkDataFresh(t, srv, ts.URL, "dc"); got != seeded {
		t.Fatalf("GET checksum %s after POST returned %s", got, seeded)
	}

	// Restart: the restored tenant serves the persisted rows.
	ctx, cancel := testContext(t, 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	srv, ts = testDaemon(t, Options{Store: testStore(t, dir)})
	if got := checkDataFresh(t, srv, ts.URL, "dc"); got != seeded {
		t.Fatalf("restored checksum %s, want %s", got, seeded)
	}

	// Cutover, then version-k and version-k+1 writes against the
	// migrated layout.
	startRollout(t, ts.URL, "dc", rolloutBody("dc", fillGaps))
	if st := waitRollout(t, ts.URL, "dc"); st.Phase != phaseDone {
		t.Fatalf("rollout phase %q (%s)", st.Phase, st.Error)
	}
	migrated := checkDataFresh(t, srv, ts.URL, "dc")
	if migrated == seeded {
		t.Fatal("the migration did not change the checksum")
	}
	before := getData(t, ts.URL, "dc", "?version=prev").Entities
	prevWrite := postData(t, ts.URL, "dc", map[string]any{"seed": 11, "maxPerType": 4, "version": "prev"}).Checksum
	if prevWrite == migrated {
		t.Fatal("version-k write did not change the checksum")
	}
	if got := checkDataFresh(t, srv, ts.URL, "dc"); got != prevWrite {
		t.Fatalf("GET checksum %s after version-k POST returned %s", got, prevWrite)
	}
	if after := getData(t, ts.URL, "dc", "?version=prev").Entities; reflect.DeepEqual(after, before) {
		t.Fatalf("version=prev entity counts %v did not follow the write", after)
	}
	postData(t, ts.URL, "dc", map[string]any{"seed": 12, "maxPerType": 4})
	checkDataFresh(t, srv, ts.URL, "dc")

	// Post-cutover rollback restores the pre-rollout rows.
	restored := postData(t, ts.URL, "dc", map[string]any{"seed": 13, "maxPerType": 4}).Checksum
	func() {
		defer faultinject.Activate(faultinject.Plan{Rules: []faultinject.Rule{
			{Site: faultinject.SiteRolloutGate, Kind: faultinject.KindError, Nth: 3},
		}})()
		startRollout(t, ts.URL, "dc", map[string]any{
			"smos": []map[string]any{{
				"op": "addEntity", "name": "dcMore", "parent": "dcEntity1",
				"attrs": []map[string]any{{"name": "Tag", "type": "string", "nullable": true}},
			}},
			"canarySamples": 1, "batchRows": 2, "strategies": fillGaps["strategies"],
		})
		if st := waitRollout(t, ts.URL, "dc"); st.Phase != phaseRolledback {
			t.Fatalf("rollout phase %q (%s), want rolledback", st.Phase, st.Error)
		}
	}()
	if got := checkDataFresh(t, srv, ts.URL, "dc"); got != restored {
		t.Fatalf("rollback checksum %s, want the pre-rollout %s", got, restored)
	}
}

// TestDataSummaryAfterBackfillResume crashes a daemon mid-backfill, losing
// its data record, and checks the resumed tenant's reads: while frozen
// they answer for the backfill source, after the resumed cutover for the
// migrated rows.
func TestDataSummaryAfterBackfillResume(t *testing.T) {
	dir := t.TempDir()
	srv, ts := testDaemon(t, Options{Store: testStore(t, dir)})
	registerChain(t, ts.URL, "dr", "dr", 4)
	seeded := postData(t, ts.URL, "dr", map[string]any{"seed": 5, "maxPerType": 4}).Checksum
	startRollout(t, ts.URL, "dr", rolloutBody("dr", map[string]any{
		"batchRows": 1, "batchDelayMs": 30, "strategies": fillGaps["strategies"],
	}))
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st RolloutStatus
		doJSON(t, "GET", ts.URL+"/v1/tenants/dr/rollout", nil, &st)
		if st.BatchesDone >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("backfill never committed a batch (phase %q)", st.Phase)
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := testContext(t, 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// The crash lost the data record: only the backfill source snapshot
	// holds the rows, and resuming must install (and persist) it.
	if err := testStore(t, dir).DeleteManifest(dataManifestName("dr")); err != nil {
		t.Fatal(err)
	}

	// Keep the resumed backfill slow enough to read while frozen: its
	// first batch stalls for a second.
	defer faultinject.Activate(faultinject.Plan{Rules: []faultinject.Rule{
		{Site: faultinject.SiteBackfillBatch, Kind: faultinject.KindDelay, Nth: 1, Delay: time.Second},
	}})()
	srv2, ts2 := testDaemon(t, Options{Store: testStore(t, dir)})
	if tn, ok := srv2.lookup("dr"); !ok || tn.activeRollout() == nil {
		t.Fatal("restart did not resume the rollout")
	}
	if got := getData(t, ts2.URL, "dr", ""); !got.Frozen {
		t.Fatal("resumed tenant is not frozen for backfill")
	}
	if got := checkDataFresh(t, srv2, ts2.URL, "dr"); got != seeded {
		t.Fatalf("resumed tenant serves %s, want the backfill source %s", got, seeded)
	}
	if st := waitRollout(t, ts2.URL, "dr"); st.Phase != phaseDone || !st.Resumed {
		t.Fatalf("resumed rollout phase %q resumed %v (%s)", st.Phase, st.Resumed, st.Error)
	}
	if got := checkDataFresh(t, srv2, ts2.URL, "dr"); got == seeded {
		t.Fatal("cutover after resume still serves the source checksum")
	}
}

// TestDataGetConcurrentWithPosts runs GET /data readers against a writer
// POSTing new rows. Every checksum a GET returns must be one an install
// produced, and never older than the last install whose POST had already
// returned when the GET was sent.
func TestDataGetConcurrentWithPosts(t *testing.T) {
	srv, ts := testDaemon(t, Options{})
	registerChain(t, ts.URL, "cg", "cg", 8)
	const writes = 30
	sums := make([]string, writes+1) // sums[0]: the empty store
	sums[0] = getData(t, ts.URL, "cg", "").Checksum
	var published atomic.Int64 // index of the last returned POST

	// The goroutines report failures through errs: t.Fatal belongs to the
	// test's own goroutine.
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer published.Store(writes) // release the readers on failure too
		for i := 1; i <= writes; i++ {
			resp, err := fetchData("POST", ts.URL+"/v1/tenants/cg/data", fmt.Sprintf(`{"seed":%d,"maxPerType":4}`, i))
			if err != nil {
				errs <- err
				return
			}
			sums[i] = resp.Checksum
			published.Store(int64(i))
		}
	}()
	type observation struct {
		floor int64
		sum   string
	}
	obs := make([][]observation, 3)
	for r := range obs {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for published.Load() < writes {
				floor := published.Load()
				resp, err := fetchData("GET", ts.URL+"/v1/tenants/cg/data", "")
				if err != nil {
					errs <- err
					return
				}
				obs[r] = append(obs[r], observation{floor, resp.Checksum})
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	last := map[string]int64{} // checksum → index of its latest install
	for i, s := range sums {
		last[s] = int64(i)
	}
	n := 0
	for _, rs := range obs {
		for _, o := range rs {
			i, ok := last[o.sum]
			if !ok {
				t.Fatalf("GET returned checksum %s that no install produced", o.sum)
			}
			if i < o.floor {
				t.Fatalf("GET returned install %d's checksum after install %d had returned", i, o.floor)
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("no concurrent reads observed")
	}
	checkDataFresh(t, srv, ts.URL, "cg")
}
