// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It drives the mapping compiler's layers through their public functions —
// compiler, core, modef, pipeline, store, exec, orm and server — from one
// process, with inputs generated from a seed, checks every result against
// an oracle, and prints each metric by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": n, "failed": n, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set (untraced run); with
// --trace 1 they are the per-layer set, measured in a run that installs an
// obsv.RecordingSink and adds benchmark-side spans around every call into
// a layer. Workloads and metric meanings are described in README.md.
//
//	perfbench --workload compile-cold|evolve-chain|data-stream|serve-durable|all
//	          [--seed 1] [--seconds 20] [--trace 0|1]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed used when --seed is not given.
const defaultSeed = 1

// config is one run's parameters.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	// dir is a scratch directory inside the working directory, removed when
	// the run ends; store-backed workloads keep their stores there.
	dir string
}

// budget is the measured time: the whole of --seconds for an untraced run,
// half of it for each of the two phases of a traced run.
func (c config) budget() time.Duration {
	d := time.Duration(c.seconds * float64(time.Second))
	if c.trace {
		d /= 2
	}
	return d
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one workload run's outcome.
type report struct {
	workload  string
	attempted int64
	failed    int64
	problems  []string
	// rss is the peak resident set size in MB when the measured work was
	// done; the checks that follow do not count.
	rss float64
	// e2e are the end-to-end metrics every workload reports (see
	// e2eMetrics); named are the workload's own end-to-end figures, printed
	// for people; layer are the per-layer metrics of a traced run.
	e2e   map[string]metric
	named []namedMetric
	layer map[string]metric
}

type namedMetric struct {
	name  string
	value float64
	unit  string
}

func newReport(workload string) *report {
	return &report{workload: workload, e2e: map[string]metric{}, layer: map[string]metric{}}
}

// markRSS records the peak RSS so far as the run's figure, once.
func (r *report) markRSS() {
	if r.rss == 0 {
		r.rss = peakRSSMB()
	}
}

// op records one attempted operation or check; a non-nil error counts it
// failed.
func (r *report) op(err error) {
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, err.Error())
	}
}

func (r *report) set(name string, value float64) {
	r.e2e[name] = metric{Value: value, Unit: unitOf(e2eMetrics, name)}
}

func (r *report) name(name string, value float64, unit string) {
	r.named = append(r.named, namedMetric{name, value, unit})
}

func (r *report) layerSet(name string, value float64) {
	r.layer[name] = metric{Value: value, Unit: unitOf(layerMetrics, name)}
}

// wrapf adds context to a non-nil error and passes nil through.
func wrapf(err error, format string, a ...any) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf(format+": %w", append(a, err)...)
}

// unitOf looks a metric's unit up; a name missing from the table is a bug
// in the benchmark.
func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// metricDef is a reported metric's name and unit.
type metricDef struct{ name, unit string }

// e2eMetrics are the end-to-end metrics of BENCHMARK.json: every workload
// reports each of them, each with the workload's own meaning (README.md).
// The timings among them are CPU time, not wall time: on a shared
// two-core machine the hypervisor's steal time moves wall times between
// runs by more than any usable bound, and CPU time leaves it out. Wall
// times, tails and second operations are printed by name but not gated.
var e2eMetrics = []metricDef{{"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"op_cpu_ms", "ms"}, {"rate_per_cpu_s", "1/s"}}

// layerMetrics are the per-layer metrics of BENCHMARK.json, reported by
// the traced run of every workload (0 where a workload leaves a layer
// idle).
var layerMetrics = []metricDef{
	{"trace.wall_s", "s"},
	{"trace.self_sum_s", "s"},
	{"trace.reconcile_error", "ratio"},
	{"trace.overhead_s", "s"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.spans", "count"},
	{"self.bench_s", "s"},
	{"self.compiler_s", "s"},
	{"self.containment_s", "s"},
	{"self.core_s", "s"},
	{"self.pipeline_s", "s"},
	{"self.modef_s", "s"},
	{"self.frag_s", "s"},
	{"self.store_s", "s"},
	{"self.orm_s", "s"},
	{"self.exec_s", "s"},
	{"self.server_s", "s"},
	{"self.other_s", "s"},
	{"exec.lifetime_s", "s"},
	{"compiler.validate_s", "s"},
	{"compiler.views_s", "s"},
	{"compiler.cells", "count"},
	{"containment.checks", "count"},
	{"containment.block_pairs", "count"},
	{"containment.check_s", "s"},
	{"cond.satcache.hits", "count"},
	{"cond.satcache.lookups", "count"},
	{"cond.satcache.hit_ratio", "ratio"},
	{"cond.sat.conflicts", "count"},
	{"cond.sat.propagations", "count"},
	{"cond.intern.size", "count"},
	{"store.bytes_read", "bytes"},
	{"store.warm_hit", "ratio"},
	{"core.apply_ms", "ms"},
	{"core.adapt_ms", "ms"},
	{"core.apply_self_ms", "ms"},
	{"core.validate_ms", "ms"},
	{"incremental.containments_per_evolve", "count"},
	{"incremental.satcache.hits", "count"},
	{"incremental.satcache.lookups", "count"},
	{"incremental.satcache.hit_ratio", "ratio"},
	{"modef.plan_ms", "ms"},
	{"pipeline.commit_ms", "ms"},
	{"session.evolve.fallback", "count"},
	{"runtime.alloc_bytes_per_evolve", "bytes"},
	{"exec.open_us", "us"},
	{"exec.next_p50_us", "us"},
	{"exec.next_p99_us", "us"},
	{"exec.rows_per_batch", "count"},
	{"exec.scan_rows_per_result", "ratio"},
	{"exec.join.build_rows", "count"},
	{"runtime.write_alloc_bytes_per_row", "bytes"},
	{"runtime.write_gc_cycles", "count"},
	{"runtime.scan_alloc_bytes_per_row", "bytes"},
	{"server.shed_ratio", "ratio"},
	{"server.evolve_requests", "count"},
	{"server.queue_depth_max", "count"},
	{"server.stale_ratio", "ratio"},
	{"server.reads", "count"},
	{"server.evolve_overhead_ms", "ms"},
	{"store.bytes_written_per_commit", "bytes"},
	{"store.persist_errors", "count"},
	{"exec.rows_per_data_get", "count"},
	{"loadgen.late_p99_ms", "ms"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(config, *report) error{
	"compile-cold":  runCompileCold,
	"evolve-chain":  runEvolveChain,
	"data-stream":   runDataStream,
	"serve-durable": runServeDurable,
}

var workloadOrder = []string{"compile-cold", "evolve-chain", "data-stream", "serve-durable"}

func main() { os.Exit(run()) }

// run runs the workloads and returns the exit code: 0 when every result
// is correct, 1 when a check failed, 2 for bad arguments.
func run() int {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadOrder, ", ")+", or all")
	seed := flag.Int64("seed", defaultSeed, "input seed (same seed, same inputs)")
	seconds := flag.Float64("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	flag.Parse()

	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	} else if workloads[*workload] == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s or all)\n", *workload, strings.Join(workloadOrder, ", "))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	// Stores and other scratch files live under the working directory and
	// are removed when the run ends.
	base, err := filepath.Abs(".bench_build")
	if err == nil {
		err = os.MkdirAll(base, 0o755)
	}
	var dir string
	if err == nil {
		dir, err = os.MkdirTemp(base, "run-")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	fmt.Printf("perfbench seed=%d (default %d) seconds=%g trace=%d GOMAXPROCS=%d NumCPU=%d %s\n",
		*seed, defaultSeed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	var reports []*report
	for _, name := range names {
		cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: filepath.Join(dir, name)}
		r := newReport(name)
		err := os.Mkdir(cfg.dir, 0o755)
		if err == nil {
			err = workloads[name](cfg, r)
		}
		if err != nil {
			r.op(fmt.Errorf("%s: %w", name, err))
		}
		r.markRSS()
		r.set("peak_rss_mb", r.rss)
		printHuman(r, cfg.trace)
		reports = append(reports, r)
	}
	if !emit(reports, *trace == 1) {
		return 1
	}
	return 0
}

// printHuman prints a workload's figures, one per line, by name and unit.
func printHuman(r *report, traced bool) {
	fmt.Printf("== %s\n", r.workload)
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("  %-40s %14.6g %s (%d of %d)\n", "failed_ratio", ratio, "ratio", r.failed, r.attempted)
	for _, d := range e2eMetrics {
		if m, ok := r.e2e[d.name]; ok {
			fmt.Printf("  %-40s %14.6g %s\n", d.name, m.Value, m.Unit)
		}
	}
	for _, m := range r.named {
		fmt.Printf("  %-40s %14.6g %s\n", m.name, m.value, m.unit)
	}
	if traced {
		keys := make([]string, 0, len(r.layer))
		for k := range r.layer {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %-40s %14.6g %s\n", k, r.layer[k].Value, r.layer[k].Unit)
		}
	}
	for _, p := range r.problems {
		fmt.Printf("  FAILED: %s\n", p)
	}
}

// emit prints the result line. Several workloads (--workload all) fold
// into one line: counts add up and each metric is keyed by workload. It
// reports whether every run was correct.
func emit(reports []*report, traced bool) bool {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, r := range reports {
		out.Attempted += r.attempted
		out.Failed += r.failed
		if r.failed > 0 || r.attempted == 0 {
			out.Correct = false
		}
		prefix := ""
		if len(reports) > 1 {
			prefix = r.workload + "/"
		}
		if traced {
			for _, d := range layerMetrics {
				m, ok := r.layer[d.name]
				if !ok {
					m = metric{Value: 0, Unit: d.unit}
				}
				out.Metrics[prefix+d.name] = m
			}
			continue
		}
		for _, d := range e2eMetrics {
			m, ok := r.e2e[d.name]
			if !ok {
				out.Correct = false
				fmt.Printf("  MISSING end-to-end metric %s on %s\n", d.name, r.workload)
				continue
			}
			out.Metrics[prefix+d.name] = m
		}
	}
	if out.Attempted == 0 {
		out.Attempted = 1
		out.Failed = 1
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return false
	}
	fmt.Println(string(b))
	return out.Correct
}
