package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/ormkit/incmap/internal/obsv"
	"github.com/ormkit/incmap/internal/server"
	"github.com/ormkit/incmap/internal/store"
)

// serve-durable: an in-process daemon configured as cmd/mapserved
// configures it (a persistent store, write-behind snapshots, three persist
// retries) serving a few chain tenants on a loopback listener. Two closed
// loops first send a fixed number of requests back to back over at most
// NumCPU client connections: the seeded mix's reads alone, which measures
// the daemon's read capacity, then the whole mix, which measures its
// capacity for the mix. An open loop then offers the mix at a fixed share
// of the latter, and each of its requests is timed from the moment it was
// due.

const (
	serveTenants = 3
	serveChainN  = 150
	// probeReads is the size of the read probe: 20 blocks of the mix's
	// reads (25 views and 67 data reads each). Its CPU time per read is a
	// gated figure; a garbage collection costs as much as tens of reads,
	// so the probe is long enough to hold many, and where the last one
	// falls moves the figure little.
	probeReads = 1840
	// probeRequests is the size of the mix capacity probe: ten blocks of
	// the mix, so 50 evolves and 30 data writes whatever the machine's
	// speed.
	probeRequests = 1000
	// serveLoad is the open loop's offered rate as a share of the probed
	// capacity. Reads share one connection, so a stall of the daemon
	// delays every read queued behind it: at half load the read median
	// spread up to 0.52 between runs, at 0.3 under 0.1.
	serveLoad = 0.3
	// serveDataPerType sizes the synthetic rows a data POST writes.
	// orm.RandomState draws each type's count from the low bits of a
	// linear congruential generator, and how those bits add up over the
	// chain's types depends on the modulus (maxPerType+1). Over ten seeds
	// a chain-150 state held 595–603 entities and 1176–1196 association
	// pairs with 7, against 267–315 and 424–548 with 4, and either 225 or
	// 300 entities with 3; with 7 every seed's data reads cost the same.
	serveDataPerType = 7
)

// Request kinds of the mix.
const (
	reqViews = iota
	reqDataGet
	reqEvolve
	reqDataPost
)

var reqNames = []string{"GET views", "GET data", "POST evolve", "POST data"}

// mixBlock is one block of the request mix: every block of len(mixBlock)
// requests holds exactly these kinds, in a seeded order, so every seed
// offers the same mix.
var mixBlock = func() []int {
	var b []int
	for kind, n := range map[int]int{reqViews: 25, reqDataGet: 67, reqEvolve: 5, reqDataPost: 3} {
		for i := 0; i < n; i++ {
			b = append(b, kind)
		}
	}
	sort.Ints(b)
	return b
}()

// mixer returns the kind of the k-th request, for k = 0, 1, ...: each
// block of len(mixBlock) requests holds mixBlock's kinds in a seeded order.
func mixer(rng *rand.Rand) func(k int) int {
	var order []int
	return func(k int) int {
		if k%len(mixBlock) == 0 {
			order = rng.Perm(len(mixBlock))
		}
		return mixBlock[order[k%len(mixBlock)]]
	}
}

// senders sends requests over a client: goroutines per channel each take
// the channel's requests in order and send them one at a time.
type senders struct {
	chans []chan *exchange
	wg    sync.WaitGroup
	mu    sync.Mutex
	done  []exchange
}

func startSenders(tc *tracer, cl *client, chans []chan *exchange, perChan int) *senders {
	s := &senders{chans: chans}
	for _, ch := range chans {
		for g := 0; g < perChan; g++ {
			s.wg.Add(1)
			go func(jobs chan *exchange) {
				defer s.wg.Done()
				for ex := range jobs {
					serveOne(tc, cl, ex)
					s.mu.Lock()
					s.done = append(s.done, *ex)
					s.mu.Unlock()
				}
			}(ch)
		}
	}
	return s
}

// finish closes the channels, waits until every request sent has been
// answered and returns the completed exchanges.
func (s *senders) finish() []exchange {
	for _, ch := range s.chans {
		close(ch)
	}
	s.wg.Wait()
	return s.done
}

// daemon is one running in-process daemon.
type daemon struct {
	dir  string
	srv  *server.Server
	hs   *http.Server
	base string
	done chan struct{}
}

func startDaemon(dir string) (*daemon, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Options{Store: st, WriteBehind: true, PersistRetries: 3})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, srv: srv, hs: &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		_ = d.hs.Serve(ln)
	}()
	return d, nil
}

// stop drains the daemon (flushing write-behind snapshots) and closes its
// listener, waiting for the serve goroutine to end.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := d.srv.Drain(ctx)
	d.hs.Close()
	<-d.done
	return err
}

// reply is what the benchmark reads from any response body: the fields of
// TenantStatus and of the data summary it checks.
type reply struct {
	Generation  int64  `json:"generation"`
	Fingerprint string `json:"fingerprint"`
	Stale       bool   `json:"stale"`
	Checksum    string `json:"checksum"`
	TotalRows   int    `json:"totalRows"`
	Error       string `json:"error"`
}

// servePhase is what one open-loop phase measured: its exchanges, its
// wall time, the summed service time of its requests, the time at least
// one request was in flight, the deepest evolve queue seen and the
// generator's p99 lateness.
type servePhase struct {
	ex                     []exchange
	wall, busy, open, late time.Duration
	qmax                   int64
}

// exchange is one completed request.
type exchange struct {
	kind, tenant    int
	method, path    string
	body            any
	name            string // the evolve's new schema object
	due, sent, recv time.Time
	status          int
	reply           reply
	err             error
}

func (e *exchange) latency() time.Duration { return e.recv.Sub(e.due) }
func (e *exchange) write() bool            { return e.kind == reqEvolve || e.kind == reqDataPost }
func (e *exchange) service() time.Duration { return e.recv.Sub(e.sent) }

func tenantName(t int) string   { return fmt.Sprintf("tenant%d", t) }
func tenantPrefix(t int) string { return fmt.Sprintf("T%dx", t) }

type client struct {
	hc   *http.Client
	base string
}

func (c *client) do(method, path string, body any) (int, reply, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, reply{}, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, reply{}, err
	}
	defer resp.Body.Close()
	var rp reply
	err = json.NewDecoder(resp.Body).Decode(&rp)
	return resp.StatusCode, rp, err
}

func runServeDurable(cfg config, r *report) error {
	workers := min(2, runtime.NumCPU())
	cl := &client{hc: &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers, DisableCompression: true,
	}}}
	defer cl.hc.CloseIdleConnections()

	var d *daemon
	var seeded []exchange // the set-up's data POSTs, one per tenant
	rep := 0
	setupCPU, setupWall, err := timeSetup(5, func() error {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
		}
		rep++
		var err error
		if d, err = startDaemon(filepath.Join(cfg.dir, fmt.Sprintf("store%d", rep))); err != nil {
			return err
		}
		cl.base = d.base
		seeded = nil
		for t := 0; t < serveTenants; t++ {
			st, rp, err := cl.do("POST", "/v1/tenants/"+tenantName(t), map[string]any{
				"workload": map[string]any{"kind": "chain", "prefix": tenantPrefix(t), "n": serveChainN}})
			if err != nil || st != http.StatusCreated {
				return fmt.Errorf("registering %s: status %d, %v %s", tenantName(t), st, err, rp.Error)
			}
			now := time.Now()
			st, rp, err = cl.do("POST", "/v1/tenants/"+tenantName(t)+"/data",
				map[string]any{"seed": cfg.seed, "maxPerType": serveDataPerType})
			if err != nil || st != http.StatusOK {
				return fmt.Errorf("seeding %s data: status %d, %v %s", tenantName(t), st, err, rp.Error)
			}
			seeded = append(seeded, exchange{kind: reqDataPost, tenant: t, due: now, sent: now, recv: time.Now(), status: st, reply: rp})
		}
		return nil
	})
	if err != nil {
		if d != nil {
			_ = d.stop() // the set-up error is the one to report
		}
		return fmt.Errorf("set-up: %w", err)
	}
	r.setSetup(setupCPU, setupWall)

	// probe sends the first n requests of the mix whose kind keep
	// accepts back to back over every connection and returns the requests
	// completed per second and the process's CPU time per request.
	probe := func(tag string, n int, keep func(kind int) bool) (float64, time.Duration, []exchange) {
		rng := rand.New(rand.NewSource(cfg.seed))
		kind := mixer(rng)
		jobs := make(chan *exchange, n)
		for k := 0; len(jobs) < n; k++ {
			if kd := kind(k); keep(kd) {
				jobs <- newRequest(rng, k, kd, tag, time.Time{})
			}
		}
		u0, start := cpuTime(), time.Now()
		ex := startSenders(nil, cl, []chan *exchange{jobs}, workers).finish()
		return ratio(float64(len(ex)), time.Since(start).Seconds()), (cpuTime() - u0) / time.Duration(n), ex
	}

	var all []exchange
	// phase offers the mix at rate requests per second for dur.
	phase := func(tc *tracer, tag string, rate float64, dur time.Duration) servePhase {
		rng := rand.New(rand.NewSource(cfg.seed))
		kind := mixer(rng)
		interval := time.Duration(float64(time.Second) / rate)
		n := int(dur / interval)
		// Readers and writers are independent clients: with two
		// connections, reads go over one and evolves and data writes over
		// the other, so a read never queues behind a write on the client.
		// Each lane holds every request of the phase, so the generator
		// never blocks on a busy lane.
		lanes := make([]chan *exchange, workers)
		for w := range lanes {
			lanes[w] = make(chan *exchange, n)
		}
		snd := startSenders(tc, cl, lanes, 1)
		var late samples
		var qmax int64
		start := time.Now()
		for k := 0; k < n; k++ {
			due := start.Add(time.Duration(k) * interval)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			late = append(late, time.Since(due))
			ex := newRequest(rng, k, kind(k), tag, due)
			if q := d.srv.QueueDepth(); q > qmax {
				qmax = q
			}
			lane := 0
			if ex.write() {
				lane = len(lanes) - 1
			}
			lanes[lane] <- ex
		}
		done := snd.finish()
		p := servePhase{ex: done, wall: time.Since(start), qmax: qmax, late: late.quantile(0.99), open: inFlight(done)}
		for i := range done {
			p.busy += done[i].service()
		}
		return p
	}

	var readCapacity, capacity, rate float64
	var readCPU, mixCPU time.Duration
	report := func(tc *tracer, p servePhase, cnt counters) {
		ex := p.ex
		var reads, evolves samples
		byKind := make([]samples, len(reqNames))
		svc := make([]time.Duration, len(reqNames))
		var stale, dataGets, dataRows int
		committed := 0
		for i := range ex {
			e := &ex[i]
			byKind[e.kind] = append(byKind[e.kind], e.latency())
			svc[e.kind] += e.service()
			switch e.kind {
			case reqViews, reqDataGet:
				reads = append(reads, e.latency())
				if e.reply.Stale {
					stale++
				}
				if e.kind == reqDataGet {
					dataGets++
					dataRows += e.reply.TotalRows
				}
			case reqEvolve:
				evolves = append(evolves, e.latency())
				if e.status == http.StatusOK {
					committed++
				}
			}
		}
		rt, rl := reads.tail()
		et, el := evolves.tail()
		r.set("op_cpu_ms", ms(readCPU))
		r.set("rate_per_cpu_s", ratio(1, secs(mixCPU)))
		r.name("read_capacity_per_s", readCapacity, "1/s")
		r.name("read_p50_ms", ms(reads.median()), "ms")
		r.name("read_"+rl+"_ms", ms(rt), "ms")
		r.name("evolve_p50_ms", ms(evolves.median()), "ms")
		r.name("evolve_"+el+"_ms", ms(et), "ms")
		for _, kind := range []int{reqViews, reqDataGet, reqDataPost} {
			l := byKind[kind]
			t, tl := l.tail()
			name := strings.ReplaceAll(strings.ToLower(reqNames[kind]), " ", "_")
			r.name(name+"_p50_ms", ms(l.median()), "ms")
			r.name(name+"_"+tl+"_ms", ms(t), "ms")
		}
		r.name("mix_capacity_per_s", capacity, "1/s")
		r.name("offered_rate_per_s", rate, "1/s")
		r.name("completed_rate_per_s", ratio(float64(len(ex)), secs(p.wall)), "1/s")
		r.name("requests", float64(len(ex)), "count")
		for kind, d := range svc {
			name := strings.ReplaceAll(strings.ToLower(reqNames[kind]), " ", "_")
			r.name(name+"_service_share", ratio(secs(d), secs(p.busy)), "ratio")
		}
		if tc == nil {
			return
		}
		// HTTP evolve latency minus the daemon's own Evolve span.
		spanOf := map[string]time.Duration{}
		for _, s := range tc.spans {
			if s.Name == "Evolve" {
				spanOf[smoName(attr(s, "smo"))] = s.Dur
			}
		}
		var overhead samples
		for i := range ex {
			if d, ok := spanOf[ex[i].name]; ok && ex[i].kind == reqEvolve {
				overhead = append(overhead, ex[i].service()-d)
			}
		}
		r.layerSet("server.shed_ratio", ratio(float64(cnt[obsv.MServeShed]), float64(len(evolves))))
		r.layerSet("server.evolve_requests", float64(len(evolves)))
		r.layerSet("server.queue_depth_max", float64(p.qmax))
		r.layerSet("server.stale_ratio", ratio(float64(stale), float64(len(reads))))
		r.layerSet("server.reads", float64(len(reads)))
		r.layerSet("server.evolve_overhead_ms", ms(overhead.median()))
		r.layerSet("store.bytes_written_per_commit", ratio(float64(cnt[obsv.MStoreBytesWritten]), float64(committed)))
		r.layerSet("store.persist_errors", float64(cnt[obsv.MStorePersistErrors]))
		// The daemon summarizes a tenant's rows by scanning its table store
		// directly, past exec's operator counters; the response says how
		// many rows a read covered.
		r.layerSet("exec.rows_per_data_get", ratio(float64(dataRows), float64(dataGets)))
		r.layerSet("loadgen.late_p99_ms", ms(p.late))
		r.layerSet("session.evolve.fallback", float64(cnt[obsv.MEvolveFallback]))
	}

	// The probes, then the open loop for the rest of the time, and at
	// least half of it. Like runPhases: traced, the open loop runs
	// untraced first, then the same schedule traced.
	pt0 := time.Now()
	readCapacity, readCPU, readProbed := probe("R", probeReads, func(kind int) bool { return kind == reqViews || kind == reqDataGet })
	capacity, mixCPU, probed := probe("P", probeRequests, func(int) bool { return true })
	rate = serveLoad * capacity
	dur := max(cfg.budget()-time.Since(pt0), cfg.budget()/2)
	all = append(readProbed, probed...)
	if !cfg.trace {
		c0 := snap()
		p := phase(nil, "S", rate, dur)
		report(nil, p, snap().delta(c0))
		all = append(all, p.ex...)
	} else {
		a := phase(nil, "A", rate, dur)
		tc := startTracing()
		c0 := snap()
		b := phase(tc, "B", rate, dur)
		cnt := snap().delta(c0)
		tc.spans = adoptDaemonSpans(tc.stop())
		reconcile(r, tc.spans, b.open, a.busy, b.busy)
		report(tc, b, cnt)
		all = append(all, a.ex...)
		all = append(all, b.ex...)
	}

	r.markRSS()

	// Checks: every request succeeded, generations never went backwards,
	// data reads match the write before them, and after Drain the store
	// holds each tenant's last committed generation.
	for i := range all {
		e := &all[i]
		err := e.err
		if err == nil && e.status != http.StatusOK {
			err = fmt.Errorf("%s on %s: status %d %s", reqNames[e.kind], tenantName(e.tenant), e.status, e.reply.Error)
		}
		r.op(err)
	}
	checkServeOrder(r, append(seeded, all...))
	final := make([]reply, serveTenants)
	for t := 0; t < serveTenants; t++ {
		st, rp, err := cl.do("GET", "/v1/tenants/"+tenantName(t), nil)
		if err == nil && st != http.StatusOK {
			err = fmt.Errorf("status of %s: %d", tenantName(t), st)
		}
		r.op(err)
		final[t] = rp
	}
	r.op(d.stop())
	st, err := store.Open(d.dir)
	if err != nil {
		r.op(err)
		return nil
	}
	for t, rp := range final {
		_, _, err := st.LoadGeneration(rp.Fingerprint)
		r.op(wrapf(err, "after drain the store lacks %s's generation %d", tenantName(t), rp.Generation))
	}
	return nil
}

// newRequest draws the k-th request of the mix from the seeded generator.
func newRequest(rng *rand.Rand, k, kind int, tag string, due time.Time) *exchange {
	ex := &exchange{kind: kind, tenant: rng.Intn(serveTenants), due: due}
	path := "/v1/tenants/" + tenantName(ex.tenant)
	ent := func() string { return fmt.Sprintf("%sEntity%d", tenantPrefix(ex.tenant), 1+rng.Intn(serveChainN)) }
	switch ex.kind {
	case reqViews:
		ex.method, ex.path = "GET", path+"/views"
	case reqDataGet:
		ex.method, ex.path = "GET", path+"/data"
	case reqDataPost:
		ex.method, ex.path = "POST", path+"/data"
		ex.body = map[string]any{"seed": rng.Uint32(), "maxPerType": serveDataPerType}
	case reqEvolve:
		ex.method, ex.path = "POST", path+"/evolve"
		ex.name = fmt.Sprintf("%s%s%d", tenantPrefix(ex.tenant), tag, k)
		if rng.Intn(10) < 7 {
			ex.body = map[string]any{"op": "addEntity", "name": ex.name, "parent": ent(),
				"attrs": []map[string]any{{"name": "Note", "type": "string", "nullable": true}}}
		} else {
			ex.body = map[string]any{"op": "addAssociation", "name": ex.name,
				"end1": map[string]string{"type": ent(), "mult": "*"},
				"end2": map[string]string{"type": ent(), "mult": "0..1"}}
		}
	}
	return ex
}

// serveOne sends one request and records its outcome.
func serveOne(tc *tracer, cl *client, ex *exchange) {
	sp, _ := tc.span(context.Background(), "bench.request", obsv.String("write", fmt.Sprint(ex.write())))
	defer sp.End(obsv.OutcomeOK)
	ex.sent = time.Now()
	if ex.due.IsZero() {
		ex.due = ex.sent
	}
	ex.status, ex.reply, ex.err = cl.do(ex.method, ex.path, ex.body)
	ex.recv = time.Now()
}

// smoName extracts the schema object name from an SMO description such
// as "PlanAddEntity(T0xS12 < T0xEntity5)" or "PlanAddAssociation(T0xS9)".
func smoName(desc string) string {
	i := strings.IndexByte(desc, '(')
	if i < 0 {
		return ""
	}
	rest := desc[i+1:]
	if j := strings.IndexAny(rest, " )"); j >= 0 {
		return rest[:j]
	}
	return rest
}

// checkServeOrder checks, per tenant, that a request sent after another
// one's response arrived never sees an older generation, and that a data
// read which follows a data write, with no other write overlapping, sees
// that write's checksum. Each tenant counts two checks.
func checkServeOrder(r *report, ex []exchange) {
	by := map[int][]*exchange{}
	for i := range ex {
		if ex[i].err == nil && ex[i].status == http.StatusOK {
			by[ex[i].tenant] = append(by[ex[i].tenant], &ex[i])
		}
	}
	for t := 0; t < serveTenants; t++ {
		es := by[t]
		var posts []*exchange
		for _, e := range es {
			if e.kind == reqDataPost {
				posts = append(posts, e)
			}
		}
		var order, sums error
		for _, b := range es {
			for _, a := range es {
				if order == nil && a.recv.Before(b.sent) && b.reply.Generation < a.reply.Generation {
					order = fmt.Errorf("%s: %s saw generation %d after %s had seen %d",
						tenantName(t), reqNames[b.kind], b.reply.Generation, reqNames[a.kind], a.reply.Generation)
				}
			}
			if b.kind != reqDataGet || sums != nil {
				continue
			}
			var last *exchange
			for _, p := range posts {
				if p.recv.Before(b.sent) && (last == nil || p.recv.After(last.recv)) {
					last = p
				}
			}
			if last == nil {
				continue
			}
			overlapped := false
			for _, q := range posts {
				if q != last && q.sent.Before(b.recv) && q.recv.After(last.recv) {
					overlapped = true
				}
			}
			if !overlapped && b.reply.Checksum != last.reply.Checksum {
				sums = fmt.Errorf("%s: GET data checksum %.12s differs from the preceding POST's %.12s",
					tenantName(t), b.reply.Checksum, last.reply.Checksum)
			}
		}
		r.op(order)
		r.op(sums)
	}
}

// inFlight is the time at least one of the exchanges was in flight, by the
// benchmark's own clock: the union of their send-to-answer intervals.
func inFlight(ex []exchange) time.Duration {
	iv := make([]exchange, len(ex))
	copy(iv, ex)
	sort.Slice(iv, func(i, j int) bool { return iv[i].sent.Before(iv[j].sent) })
	var total time.Duration
	var end time.Time
	for _, e := range iv {
		switch {
		case e.sent.After(end):
			total += e.recv.Sub(e.sent)
			end = e.recv
		case e.recv.After(end):
			total += e.recv.Sub(end)
			end = e.recv
		}
	}
	return total
}

// adoptDaemonSpans makes each root span the daemon recorded a child of the
// write request it ran inside. The daemon runs an evolve within the
// handler of the POST that asked for it, but the request's span context
// does not cross HTTP, so its Evolve span arrives as a root; without a
// parent it would split its time with the request's span as if the two
// ran in parallel.
func adoptDaemonSpans(spans []obsv.SpanData) []obsv.SpanData {
	var writes []obsv.SpanData
	for _, s := range spans {
		if s.Name == "bench.request" && attr(s, "write") == "true" {
			writes = append(writes, s)
		}
	}
	for i, s := range spans {
		if s.Parent != 0 || strings.HasPrefix(s.Name, "bench.") {
			continue
		}
		for _, w := range writes {
			if w.Start <= s.Start && s.Start+s.Dur <= w.Start+w.Dur {
				spans[i].Parent = w.ID
				break
			}
		}
	}
	return spans
}
