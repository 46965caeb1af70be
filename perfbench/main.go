// Command perfbench is the repository benchmark. It runs one seeded
// workload, checks every result it gets, and prints its metrics: a
// human-readable table first, then one JSON object as the last line of
// standard output.
//
//	perfbench -workload mine-small -seed 7 -seconds 20 -trace 0
//
// Workloads:
//
//	mine-paper   serial core.Mine at paper scale (8,124 and 30,000 rows)
//	mine-small   serial core.Mine, sharded mining and a sweep at CI scale
//	serve-mixed  an open-loop request mix against a pfcimd child process
//
// With -trace 0 the JSON carries the end-to-end metrics; with -trace 1 it
// carries the per-layer metrics, measured with spans recorded around every
// call the benchmark makes into a layer. METRICS.md defines each metric per
// workload and which end-to-end metric each layer metric should move.
//
// run.sh builds this program and pfcimd from the checkout and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"github.com/probdata/pfcim/internal/itemset"
	"github.com/probdata/pfcim/internal/uncertain"
	"github.com/probdata/pfcim/internal/world"
)

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the untraced metrics every workload reports. Each has a
// meaning on every workload (METRICS.md), so none is ever zero.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rss_mb", "MB"},
	{"pass_s", "s"},
	{"pass_p90_s", "s"},
	{"served_rps", "1/s"},
}

// perLayer are the traced metrics. A workload reports 0 for a layer its
// traffic does not reach.
var perLayer = []metricDef{
	{"uncertain.build_ms", "ms"},
	{"core.mine_mushroom_ms", "ms"},
	{"core.mine_quest_ms", "ms"},
	{"core.candidates_ms", "ms"},
	{"core.expand_ms", "ms"},
	{"core.bound_check_ms", "ms"},
	{"core.exact_union_ms", "ms"},
	{"core.sampling_ms", "ms"},
	{"core.phase_share", "ratio"},
	{"core.nodes", "count"},
	{"core.tail_evals", "count"},
	{"core.memo_hits", "count"},
	{"core.memo_hit_ratio", "ratio"},
	{"core.freq_pruned", "count"},
	{"core.ch_pruned", "count"},
	{"core.bound_accepted", "count"},
	{"core.bound_rejected", "count"},
	{"core.clauses", "count"},
	{"core.sampled", "count"},
	{"core.samples_drawn", "count"},
	{"poibin.tail_us", "us"},
	{"poibin.tail_n", "count"},
	{"poibin.tail_busy_ms", "ms"},
	{"bitset.and_us", "us"},
	{"shard.mine_ms", "ms"},
	{"shard.overhead_ratio", "ratio"},
	{"sweep.mine_ms", "ms"},
	{"sweep.enumerations_per_point", "ratio"},
	{"stream.reuse_ratio", "ratio"},
	{"stream.tail_evals_per_round", "count"},
	{"service.job_p50_ms", "ms"},
	{"service.job_p99_ms", "ms"},
	{"service.hit_p50_ms", "ms"},
	{"service.hit_p99_ms", "ms"},
	{"service.append_p50_ms", "ms"},
	{"service.append_p99_ms", "ms"},
	{"service.queue_wait_p50_ms", "ms"},
	{"service.queue_wait_p99_ms", "ms"},
	{"service.mine_wall_p50_ms", "ms"},
	{"service.cache_hit_ratio.miss", "ratio"},
	{"service.cache_hit_ratio.replay", "ratio"},
	{"service.cache_hit_ratio.watched", "ratio"},
	{"service.shed", "count"},
	{"service.capacity_rps", "1/s"},
	{"service.encode_ms", "ms"},
	{"service.registry_append_ms", "ms"},
	{"service.rss_kb_per_job", "KB"},
	{"store.put_result_ms", "ms"},
	{"store.put_dataset_ms", "ms"},
	{"store.get_result_ms", "ms"},
	{"store.bytes_per_user_byte", "ratio"},
	{"store.disk_mb", "MB"},
	{"loadgen.late_p99_ms", "ms"},
	{"self.bench_ms", "ms"},
	{"self.core_ms", "ms"},
	{"self.shard_ms", "ms"},
	{"self.sweep_ms", "ms"},
	{"self.service_ms", "ms"},
	{"obs.overhead_ratio", "ratio"},
}

// run is the state one workload shares with the harness: its inputs'
// seed, its time budget, the tracer, the operation counts, and the
// metrics it produces.
type run struct {
	seed    int64
	seconds time.Duration
	traced  bool
	tr      *tracer
	binDir  string
	workDir string

	attempted atomic.Int64
	failed    atomic.Int64
	mismatch  atomic.Int64 // failed operations whose output was wrong

	metrics map[string]float64 // end-to-end or per-layer, by -trace
	extra   []string           // further human-readable report lines
}

// op records the outcome of one attempted operation. A wrong result is
// also a mismatch, which makes the command exit non-zero.
func (r *run) op(ok, wrong bool) {
	r.attempted.Add(1)
	if !ok || wrong {
		r.failed.Add(1)
	}
	if wrong {
		r.mismatch.Add(1)
	}
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

func (r *run) notef(format string, args ...any) {
	r.extra = append(r.extra, fmt.Sprintf(format, args...))
}

// checkAnchor checks the Table II anchor of the paper: on its example
// database, Pr_FC(abcd) = 0.81 at min_sup 2.
func (r *run) checkAnchor() {
	p, err := world.FreqClosedProb(uncertain.PaperExample(), itemset.FromInts(0, 1, 2, 3), 2)
	ok := err == nil
	wrong := ok && math.Abs(p-0.81) > 1e-10
	if !ok || wrong {
		fmt.Fprintf(os.Stderr, "perfbench: Table II anchor Pr_FC(abcd) = %v (err %v), want 0.81\n", p, err)
	}
	r.op(ok, wrong)
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		workload = flag.String("workload", "", "mine-paper, mine-small or serve-mixed")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Int("seconds", 20, "how long the workload is measured")
		trace    = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
		binDir   = flag.String("bin-dir", ".bench_build/bin", "directory holding the pfcimd binary")
		workDir  = flag.String("work-dir", ".bench_build", "directory for the store, span dumps and scratch files")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be ≥ 1 and -trace 0 or 1")
		return 2
	}
	r := &run{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		tr:      newTracer(*trace == 1),
		binDir:  *binDir,
		workDir: *workDir,
		metrics: make(map[string]float64),
	}
	if err := os.MkdirAll(r.workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	var err error
	switch *workload {
	case "mine-paper":
		err = r.minePaper()
	case "mine-small":
		err = r.mineSmall()
	case "serve-mixed":
		err = r.serveMixed()
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q\n", *workload)
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if r.traced {
		path := fmt.Sprintf("%s/spans-%s-%d.json", r.workDir, *workload, r.seed)
		if err := r.tr.writeFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
		r.notef("spans: %d written to %s", len(r.tr.spans), path)
	}

	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	out := resultJSON{
		Correct:   r.mismatch.Load() == 0,
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	fmt.Printf("workload %s  seed %d  seconds %d  trace %d\n", *workload, r.seed, *seconds, *trace)
	reported := make(map[string]bool, len(defs))
	for _, d := range defs {
		v := r.metrics[d.name]
		out.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
		reported[d.name] = true
		fmt.Printf("  %-34s %14.6g %s\n", d.name, v, d.unit)
	}
	// Metrics of the other set that this run measured anyway, such as the
	// per-class serve latencies of an untraced run.
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if v, ok := r.metrics[d.name]; ok && !reported[d.name] {
			fmt.Printf("  %-34s %14.6g %s (also measured)\n", d.name, v, d.unit)
		}
	}
	sort.Strings(r.extra)
	for _, l := range r.extra {
		fmt.Printf("  %s\n", l)
	}
	errRatio := 0.0
	if out.Attempted > 0 {
		errRatio = float64(out.Failed) / float64(out.Attempted)
	}
	fmt.Printf("  attempted %d  failed %d  error_ratio %.6f  correct %t\n",
		out.Attempted, out.Failed, errRatio, out.Correct)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d result mismatches\n", r.mismatch.Load())
		return 1
	}
	return 0
}
