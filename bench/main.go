// Command bench is the repository's end-to-end benchmark: whole model
// revision jobs (training) and open-loop forecast traffic (serving), each
// timed at the public calls a user makes, with a traced run that splits
// the time across the program's layers. See README.md.
//
//	bash bench/run.sh --workload revise_islands --seed 1 --seconds 50 --trace 0
//	bash bench/run.sh -compare parent.json change.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"gmr/internal/obs"
)

// metricDef is one metric of the benchmark's output.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, printed for every workload.
// For a serving workload an operation is one forecast request; for a
// training workload it is one whole revision job.
var endToEnd = []metricDef{
	{"setup_s", "s"},        // median of several set-ups
	{"p50_ms", "ms"},        // median latency: serving at the low rate; training per job
	{"cpu_ms_per_op", "ms"}, // process CPU per completed operation
	{"ops_per_s", "1/s"},    // serving: median 64-client closed-loop capacity; training: jobs per second
}

var levelNames = []string{"low", "mid", "high"}

// perLayer are the metrics of a traced run, printed for every workload; a
// layer the workload does not run reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"core.share", "ratio"}, {"orchestrator.share", "ratio"}, {"gp.share", "ratio"},
		{"evalx.share", "ratio"}, {"other.share", "ratio"},
		{"orchestrator.busy_s", "s"}, {"gp.busy_s", "s"}, {"evalx.busy_s", "s"},
		{"gp.worker_util", "ratio"},
		{"evalx.evaluations", "count"}, {"evalx.short_circuit_ratio", "ratio"},
		{"evalx.sim_step_ratio", "ratio"}, {"evalx.tier1_hit_ratio", "ratio"},
		{"evalx.tier2_hit_ratio", "ratio"}, {"evalx.compiles", "count"},
		{"evalx.lane_fill", "ratio"}, {"evalx.pop_lane_fill", "ratio"},
		{"evalx.pop_scalar_fallbacks", "count"}, {"evalx.quarantines", "count"},
		{"orchestrator.migrations", "count"},
		{"process.cpu_util", "ratio"}, {"trace.overhead", "ratio"},
		{"serve.kernel_ms_mean", "ms"},
		{"serve.resp_cache_hit_ratio", "ratio"}, {"serve.plan_cache_hit_ratio", "ratio"},
		{"serve.deadline_drops", "count"},
	}
	for _, l := range levelNames {
		defs = append(defs,
			metricDef{"serve.queue_wait_ms_p50_" + l, "ms"},
			metricDef{"serve.lane_fill_" + l, "ratio"},
			metricDef{"serve.launches_per_req_" + l, "count"},
			metricDef{"serve.kernel_busy_share_" + l, "ratio"},
			metricDef{"serve.handler_self_ms_" + l, "ms"},
			metricDef{"serve.shed_ratio_" + l, "ratio"},
			metricDef{"loadgen.late_ms_p99_" + l, "ms"},
		)
	}
	return defs
}()

// workloads maps each workload name to its runner, in the order -workload
// all runs them.
var workloads = []struct {
	name string
	run  func(*runEnv) (*report, error)
}{
	{"revise_islands", runTrain},
	{"serve_point", runServe},
}

// runEnv is what a workload run is given.
type runEnv struct {
	seed    int64
	budget  time.Duration // measuring time
	traced  bool
	toy     bool // test-sized jobs and levels
	setups  int  // set-ups timed for setup_s
	workdir string
	sink    *spanSink
	spans   []obs.SpanRecord // every traced span of the run, for -trace-out
}

// keepSpans retains a report's spans for -trace-out.
func (env *runEnv) keepSpans(rep *report) { env.spans = append(env.spans, rep.spans...) }

// report is one workload's outcome.
type report struct {
	e2e, layers       map[string]float64
	notes             []note
	attempted, failed int
	digest            string
	testRMSE          float64
	spans             []obs.SpanRecord

	mu       sync.Mutex
	problems []string
}

// note is an informational output line outside the metric set.
type note struct {
	name, unit string
	value      float64
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layers: map[string]float64{}}
}

func (r *report) note(name string, v float64, unit string) {
	r.notes = append(r.notes, note{name, unit, v})
}

// problem records a failed correctness check. Safe for concurrent use.
func (r *report) problem(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// metricValue is one metric in the result object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one workload run as -out stores it and -compare reads it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	result
	ChampionDigest string  `json:"champion_digest,omitempty"`
	TestRMSE       float64 `json:"test_rmse,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "revise_islands, serve_point or all")
	seed := fs.Int64("seed", 1, "seed of the GP runs and of the request arrival and parameter streams")
	seconds := fs.Int("seconds", 50, "measuring time of one workload run")
	trace := fs.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
	traceOut := fs.String("trace-out", "", "file the traced run's spans are written to (default .bench_build/spans-<workload>.json)")
	out := fs.String("out", "", "JSON file each workload's result record is appended to")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments: parent then change")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two files: parent.json change.json")
			return 2
		}
		if err := compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1")
		return 2
	}
	env := &runEnv{
		seed:    *seed,
		budget:  time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		setups:  15,
		workdir: filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())),
		sink:    &spanSink{},
	}
	if *traceOut == "" && env.traced {
		*traceOut = filepath.Join(".bench_build", "spans-"+*name+".json")
	}
	res, recs, err := runNamed(env, *name, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if env.traced {
		if err := writeSpans(*traceOut, env.spans); err != nil {
			fmt.Fprintln(stderr, "bench: writing spans:", err)
			return 1
		}
	}
	if *out != "" {
		if err := appendRecords(*out, recs); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	blob, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(blob))
	if !res.Correct {
		return 1
	}
	return 0
}

// runNamed runs one workload, or all of them, printing a line per metric.
// With all, the result's metric names carry the workload as a prefix.
func runNamed(env *runEnv, name string, stdout io.Writer) (result, []record, error) {
	all := result{Correct: true, Metrics: map[string]metricValue{}}
	var recs []record
	found := name == "all"
	for _, w := range workloads {
		found = found || name == w.name
	}
	if !found {
		return all, nil, fmt.Errorf("unknown workload %q", name)
	}
	if err := os.MkdirAll(env.workdir, 0o755); err != nil {
		return all, nil, err
	}
	defer os.RemoveAll(env.workdir)
	for _, w := range workloads {
		if name != w.name && name != "all" {
			continue
		}
		rep, err := w.run(env)
		if err != nil {
			return all, nil, fmt.Errorf("%s: %w", w.name, err)
		}
		rep.note("peak_rss_mb", peakRSSMB(), "MiB")
		rec := record{Workload: w.name, Seed: env.seed, Traced: env.traced,
			result: rep.result(env.traced), ChampionDigest: rep.digest, TestRMSE: rep.testRMSE}
		printReport(stdout, w.name, rep, rec.result)
		recs = append(recs, rec)
		all.Correct = all.Correct && rec.Correct
		all.Attempted += rec.Attempted
		all.Failed += rec.Failed
		for k, v := range rec.Metrics {
			if name == "all" {
				k = w.name + "." + k
			}
			all.Metrics[k] = v
		}
	}
	return all, recs, nil
}

// result turns a report into the printed object: the end-to-end metrics,
// or with traced the per-layer ones, all present and finite.
func (r *report) result(traced bool) result {
	defs, vals := endToEnd, r.e2e
	if traced {
		defs, vals = perLayer, r.layers
	}
	// A refused request (429, 504, or an arrival past the in-flight cap) is
	// counted in failed, not held against correctness: correct says every
	// output that was checked holds.
	res := result{Correct: len(r.problems) == 0, Attempted: r.attempted,
		Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.problem("metric %s is %v", d.name, v)
			res.Correct = false
			v = 0
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	return res
}

func printReport(w io.Writer, workload string, rep *report, res result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%s %s %.6g %s\n", workload, k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(w, "%s %s %.6g %s\n", workload, n.name, n.value, n.unit)
	}
	if rep.digest != "" {
		fmt.Fprintf(w, "%s champion_digest %s -\n", workload, rep.digest)
	}
	fmt.Fprintf(w, "%s attempted %d count\n%s failed %d count\n", workload, res.Attempted, workload, res.Failed)
	for _, p := range rep.problems {
		fmt.Fprintf(w, "%s INCORRECT %s\n", workload, p)
	}
}

// appendRecords adds records to the JSON array in path, creating it.
func appendRecords(path string, recs []record) error {
	var all []record
	blob, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(blob, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	all = append(all, recs...)
	blob, err = json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// timedSetups runs setup n times and returns the last result with the
// median time taken, in seconds, at the reference speed and as measured;
// discard releases each earlier result. Each set-up starts from a
// collected heap, so none pays for its predecessor's garbage, and is
// scaled by a reference-kernel sample taken just before it.
func timedSetups[T any](n int, setup func() (T, error), discard func(T)) (last T, scaled, measured float64, err error) {
	var times, scaledTimes []float64
	for i := 0; i < n; i++ {
		if i > 0 && discard != nil {
			discard(last)
		}
		k := refNominal.Seconds() / refKernel().Seconds()
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, 0, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0).Seconds()
		times, scaledTimes = append(times, d), append(scaledTimes, d*k)
		last = v
	}
	return last, median(scaledTimes), median(times), nil
}

// scaleToReference turns the named end-to-end metrics of the report,
// measured on a host running at the meter's speed, into values at the
// reference speed: times are multiplied by the meter's scale and rates
// divided by it. The measured values are kept as notes.
func (r *report) scaleToReference(m *speedMeter, names ...string) {
	k := m.scale()
	for _, d := range endToEnd {
		if !slices.Contains(names, d.name) {
			continue
		}
		v := r.e2e[d.name]
		r.note(d.name+"_measured", v, d.unit)
		if d.unit == "1/s" {
			r.e2e[d.name] = v / k
		} else {
			r.e2e[d.name] = v * k
		}
	}
	r.note("host_speed", k, "ratio")
	r.note("speed_samples", float64(len(m.samples)), "count")
}

// subSeed derives an independent stream seed from the run seed and a label,
// so each level and probe draws fresh arrivals and scenarios.
func subSeed(seed int64, label string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, label)
	return int64(h.Sum64() >> 1)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
