// Command openbi-bench is openbi's end-to-end benchmark. It runs one workload
// per invocation, from a single process, against the code in the enclosing
// checkout:
//
//	kb-build     the offline path: the `openbi experiments` default grid,
//	             then SaveKB, kb.Load and kb.BuildManifest as the CLI does
//	advise-miss  POST /v1/advise with a fresh severity vector per request
//	serve-mixed  cached advice, CSV and N-Triples uploads and same-file KB
//	             reloads on one server
//
// Inputs are generated from --seed. The run measures for --seconds, checks
// every output for correctness, prints the run environment, a readable
// report and a layer ladder, and ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set (endToEnd below); with
// --trace 1 the run repeats the workload untraced and traced on the same
// inputs and reports the per-layer set (layerMetrics below), the tracing
// overhead and the ladder remainder. LAYERS.md defines every metric.
//
// Build and run it with benchmark/run.sh from the repository root.
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

	"openbi/internal/mining"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics every untraced run reports. What an
// "op" is depends on the workload: a KB record on kb-build, an advise
// request on the serve workloads.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p95_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_kb_per_op", "KiB"},
	{"peak_rss_mb", "MiB"},
}

// layerMetrics lists the per-layer metrics every traced run reports. A layer
// a workload does not exercise reads 0 on it.
var layerMetrics = func() []struct{ name, unit string } {
	m := []struct{ name, unit string }{
		{"experiment.prepare_s", "s"},
		{"experiment.phase1_s", "s"},
		{"experiment.phase2_s", "s"},
		{"experiment.worker_util", "ratio"},
		{"experiment.task_self_s", "s"},
	}
	for _, alg := range mining.SuiteNames() {
		m = append(m, struct{ name, unit string }{"mining.fit_s." + alg, "s"})
	}
	for _, alg := range mining.SuiteNames() {
		m = append(m, struct{ name, unit string }{"mining.predict_s." + alg, "s"})
	}
	return append(m, []struct{ name, unit string }{
		{"mining.fit_calls", "count"},
		{"eval.cv_self_s", "s"},
		{"inject.apply_s", "s"},
		{"dq.measure_s", "s"},
		{"kb.save_s", "s"},
		{"kb.load_s", "s"},
		{"provenance.build_manifest_s", "s"},
		{"server.handler_p50_ms", "ms"},
		{"server.handler_p99_ms", "ms"},
		{"server.net_p50_ms", "ms"},
		{"server.batch_size_mean", "count"},
		{"server.batch_wait_ms", "ms"},
		{"server.decode_us", "us"},
		{"kb.advise_us", "us"},
		{"server.encode_us", "us"},
		{"server.inproc_handler_us", "us"},
		{"server.cache_hit_ratio", "ratio"},
		{"server.rewarm_misses", "count"},
		{"server.reload_p50_ms", "ms"},
		{"kb.load_ms", "ms"},
		{"provenance.verify_ms", "ms"},
		{"kb.snapshot_ms", "ms"},
		{"rdf.stream_ms", "ms"},
		{"core.ingest_lod_ms", "ms"},
		{"server.lod_handler_p50_ms", "ms"},
		{"table.read_csv_ms", "ms"},
		{"dq.measure_ms", "ms"},
		{"server.profile_handler_p50_ms", "ms"},
		{"runtime.gc_cpu_fraction", "ratio"},
		{"runtime.gc_pause_p99_ms", "ms"},
		{"trace.overhead_share", "ratio"},
		{"ladder.unattributed_share", "ratio"},
	}...)
}()

// run carries one invocation's settings and collects its outcome.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	dir      string // scratch directory of this run, removed at exit
	traceDir string // where traced runs write their spans

	attempted, failed int64
	failures          []string
	values            map[string]float64
	named             []namedValue // workload-specific readable metrics
	ladder            *ladder
}

// namedValue is one readable, workload-specific figure (printed, not part of
// the JSON result).
type namedValue struct {
	name  string
	value float64
	unit  string
	note  string
}

// fail records a failed correctness check. Up to ten messages are kept for
// the report; every failure counts.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *run) set(name string, v float64) { r.values[name] = v }

func (r *run) note(name string, v float64, unit, note string) {
	r.named = append(r.named, namedValue{name, v, unit, note})
}

func main() {
	workload := flag.String("workload", "", "kb-build, advise-miss or serve-mixed")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 15, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for scratch files and span dumps")
	flag.Parse()

	if err := mainErr(*workload, *seed, *seconds, *trace, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "openbi-bench:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed int64, seconds, trace int, workdir string) error {
	runners := map[string]func(*run) error{
		"kb-build":    runKBBuild,
		"advise-miss": runAdviseMiss,
		"serve-mixed": runServeMixed,
	}
	fn, ok := runners[workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q (want kb-build, advise-miss or serve-mixed)", workload)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	r := &run{
		workload: workload,
		seed:     seed,
		seconds:  time.Duration(seconds) * time.Second,
		traced:   trace == 1,
		dir:      dir,
		traceDir: filepath.Join(workdir, "trace"),
		values:   map[string]float64{},
	}
	printEnv(r)
	if err := fn(r); err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	return printResult(r)
}

// printEnv prints the run environment: results from different machines or
// settings must never be compared silently.
func printEnv(r *run) {
	fmt.Printf("env: workload=%s seed=%d seconds=%d trace=%v nproc=%d GOMAXPROCS=%d go=%s os=%s/%s cpu=%q\n",
		r.workload, r.seed, int(r.seconds/time.Second), r.traced, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel())
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func printResult(r *run) error {
	for _, n := range r.named {
		fmt.Printf("  %-34s %14.4f %-8s %s\n", n.name, n.value, n.unit, n.note)
	}
	if r.ladder != nil {
		r.ladder.print()
	}
	set := endToEnd
	if r.traced {
		set = layerMetrics
	}
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(set)),
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
		res.Failed = 1
		r.failures = append(r.failures, "no operation was attempted")
	}
	for _, m := range set {
		res.Metrics[m.name] = metric{Value: r.values[m.name], Unit: m.unit}
	}
	names := make([]string, 0, len(set))
	for _, m := range set {
		names = append(names, m.name)
	}
	sort.Strings(names)
	fmt.Printf("%s metrics (%s):\n", map[bool]string{false: "end-to-end", true: "per-layer"}[r.traced], r.workload)
	for _, n := range names {
		fmt.Printf("  %-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, f := range r.failures {
		fmt.Println("FAILED:", f)
	}
	fmt.Printf("checks: attempted=%d failed=%d\n", res.Attempted, res.Failed)
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
