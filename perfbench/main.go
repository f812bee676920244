// Command perfbench is the repository's benchmark: it times the
// simulator on three workloads, end to end and layer by layer, and
// checks the simulator's outputs while it does. README.md describes the
// workloads, the metrics and the map from each layer metric to the
// end-to-end metrics it should move; run.sh builds and runs it:
//
//	bash perfbench/run.sh --workload exam-crowd --seed 1 --seconds 30 --trace 0
//
// Each run is one call into scenario's public entry points, made one
// after another by a single child process: a closed loop with one
// client. The child sets the workload up once, makes one warm-up call
// whose outputs are checked but whose cost is not reported, and then
// makes the runs, so every run finds the process's memory already
// mapped. With --trace 0 the command reports the end-to-end metrics,
// medians over the runs; with --trace 1 the child alternates untraced
// runs with traced ones that also call into each layer's public
// functions, and the command reports the per-layer metrics. The last
// line of standard output is a JSON object with the keys correct,
// attempted, failed and metrics. The command exits 1 when a run fails
// or an output check does.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"elearncloud/internal/metrics"
	"elearncloud/internal/scenario"
)

// defaultSeed is the seed numbers are quoted at. README.md names the
// held-out seed a claimed gain must also hold on.
const defaultSeed = 1

// budget bounds one invocation: children still running then are killed.
const budget = 170 * time.Second

// setupSamples is how many set-up-only children an invocation starts
// before its runs.
const setupSamples = 16

// traceDir is where traced sets write their spans, relative to the
// directory the benchmark runs in.
const traceDir = ".bench_build/trace"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	child    string
	workers  int
	t0       int64
	until    int64
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "seed the workload's inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 30, "seconds to keep starting runs")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from traced runs")
	fs.StringVar(&o.child, "child", "", "internal: set up only (setup), make one untraced call (run), or make a warm-up call and then runs until -until (loop); print a record per line")
	fs.IntVar(&o.workers, "workers", 0, "internal: a child's pool size (0: one worker per CPU)")
	fs.Int64Var(&o.t0, "t0", 0, "internal: the parent's clock when it started the child, in Unix nanoseconds")
	fs.Int64Var(&o.until, "until", 0, "internal: in a loop child, the deadline of the set, in Unix nanoseconds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "perfbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	case !slices.Contains(workloadNames, o.workload):
		fmt.Fprintf(stderr, "perfbench: -workload must be one of %s\n", strings.Join(workloadNames, ", "))
		return 2
	case o.seconds < 1:
		fmt.Fprintln(stderr, "perfbench: -seconds must be at least 1")
		return 2
	case o.trace != 0 && o.trace != 1:
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if o.child != "" {
		if o.child != "setup" && o.child != "run" && o.child != "loop" {
			fmt.Fprintln(stderr, "perfbench: -child must be setup, run or loop")
			return 2
		}
		t0 := time.Now()
		if o.t0 != 0 {
			t0 = time.Unix(0, o.t0)
		}
		enc := json.NewEncoder(stdout)
		if err := childRuns(o, t0, enc.Encode); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	return parent(o, stdout, stderr)
}

// A record is what a child reports about one call: its set-up (kind
// setup), its warm-up call (warmup), or a run (run, or trace when
// traced).
type record struct {
	Kind    string   `json:"kind"`
	Workers int      `json:"workers"`
	Errors  []string `json:"errors,omitempty"`
	// Host cost of the entry call, and of set-up before it.
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	AllocMB   float64 `json:"alloc_mb"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// SetupS is set on a child's first record only.
	SetupS float64 `json:"setup_s"`
	// Sim holds the simulated statistics and exact counts of the
	// outputs; Fingerprint digests every output.
	Sim         map[string]float64 `json:"sim"`
	Fingerprint string             `json:"fingerprint"`
	// Layers and Spans are set by traced runs only.
	Layers map[string]float64 `json:"layers,omitempty"`
	Spans  []span             `json:"spans,omitempty"`
}

func (r *record) fail(format string, args ...any) *record {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	return r
}

// childRuns sets the workload up and makes the calls of one child,
// passing emit a record for each. A setup child emits its set-up only;
// a run child makes one untraced call; a loop child makes a warm-up
// call and then runs until o.until. The first record carries the
// child's set-up time, from t0 to the end of set-up.
func childRuns(o options, t0 time.Time, emit func(any) error) error {
	pool := scenario.NewPool(o.workers)
	w, err := newWorkload(o.workload, o.seed, pool, nil)
	setup := time.Since(t0).Seconds()
	if err != nil || o.child == "setup" {
		rec := &record{Kind: "setup", Workers: pool.Workers(), SetupS: setup}
		if err != nil {
			rec.fail("set-up: %v", err)
		}
		return emit(rec)
	}
	first := measure(w, pool, nil, "run")
	if o.child == "run" {
		first.SetupS = setup
		return emit(first)
	}
	first.Kind, first.SetupS = "warmup", setup
	if err := emit(first); err != nil || len(first.Errors) > 0 {
		return err
	}

	// A run starts only if a run as long as the longest so far of its
	// kind still ends by the deadline, so a set takes about --seconds
	// whatever the workload; the loop makes at least one run of each
	// kind it needs.
	deadline := time.Unix(0, o.until)
	var made [2]int
	var longest [2]time.Duration
	for {
		kind := 0
		if o.trace == 1 && made[1] < made[0] {
			kind = 1
		}
		needed := made[0] == 0 || (kind == 1 && made[1] == 0)
		if !needed && time.Now().Add(longest[kind]).After(deadline) {
			return nil
		}
		start := time.Now()
		var rec *record
		if kind == 1 {
			rec = tracedRun(o.workload, o.seed, pool)
		} else {
			rec = measure(w, pool, nil, "run")
		}
		longest[kind] = max(longest[kind], time.Since(start))
		made[kind]++
		if err := emit(rec); err != nil || len(rec.Errors) > 0 {
			return err
		}
	}
}

// tracedRun sets the workload up again with a tracer, so that the
// trace holds set-up's calls too, and makes one traced run on pool.
func tracedRun(name string, seed uint64, pool *scenario.Pool) *record {
	tr := newTracer()
	w, err := newWorkload(name, seed, pool, tr)
	if err != nil {
		return (&record{Kind: "trace", Workers: pool.Workers()}).fail("set-up: %v", err)
	}
	return measure(w, pool, tr, "trace")
}

// measure makes the timed entry call on w and checks its outputs; with
// a tracer it then calls into each layer as well.
func measure(w bench, pool *scenario.Pool, tr *tracer, kind string) *record {
	rec := &record{Kind: kind, Workers: pool.Workers()}
	ps0 := pool.Stats()
	// Every run starts as a fresh process would: with no garbage, and
	// with no free memory counted as the runtime's. With
	// GODEBUG=madvdontneed=0 the pages stay with the process, so the run
	// reuses them without faulting them in again.
	debug.FreeOSMemory()
	mem := startMemPeak()
	sp := tr.start("scenario.run")
	before := snapshot()
	o, err := w.run()
	entry := since(before)
	tr.end(sp)
	rec.PeakRSSMB = mem.stop()
	if err != nil {
		return rec.fail("run: %v", err)
	}
	rec.WallS, rec.CPUS = entry.wallS(), entry.cpuS()
	rec.AllocMB = float64(entry.AllocBytes) / 1e6
	// The pool outlives the run: its counters are the run's increments.
	pstats := pool.Stats()
	pstats.JobsRun -= ps0.JobsRun
	pstats.TokenIdle -= ps0.TokenIdle
	rec.Sim = simStats(o)
	rec.Fingerprint = fingerprint(o)
	rec.Errors = append(rec.Errors, w.check(o)...)
	if tr != nil {
		counts, err := w.layers(tr, o)
		if err != nil {
			return rec.fail("traced run: %v", err)
		}
		rec.Layers = layerMetrics(tr.spans, counts, entry, pstats)
		for _, mt := range simulated {
			rec.Layers[mt.name] = rec.Sim[mt.name]
		}
		rec.Spans = tr.spans
	}
	return rec
}

// simStats are the outputs' simulated statistics and exact counts, over
// all of a run's request-level results.
func simStats(o *outcome) map[string]float64 {
	m := map[string]float64{}
	if len(o.res) > 0 {
		lat := metrics.DefaultLatency()
		var failed, total float64
		for _, r := range o.res {
			lat.Merge(r.Latency)
			// Result.ErrorRate, over all results.
			f := float64(r.Rejected + r.Offline + uint64(r.KilledJobs))
			failed += f
			total += float64(r.Served) + f
			m["sim.events"] += float64(r.Events)
			m["sim.arrivals"] += float64(r.Arrivals)
			m["sim.rejected"] += float64(r.Rejected)
		}
		m["sim_p95_ms"] = lat.P95() * 1000
		m["sim_fail_frac"] = ratio(failed, total)
	}
	for _, f := range o.fluid {
		m["sim.cost_usd"] += f.Cost.Total()
	}
	return m
}

// layerMetrics derives the per-layer metrics of one traced run from its
// spans, the layers' counts and the pool's telemetry.
func layerMetrics(spans []span, c map[string]float64, entry cost, ps scenario.PoolStats) map[string]float64 {
	m := map[string]float64{}
	for _, mt := range perLayer {
		m[mt.name] = c[mt.name]
	}
	fluid := sum(spans, "scenario.fluid")
	windows := sum(spans, "scenario.window")
	replay := sum(spans, "workload.replay")
	build := sum(spans, "deploy.build")

	// Layer times are host CPU seconds: additive across a pool's
	// workers and steadier than wall time on a shared machine. Only the
	// entry call, which wall_s times, is reported in wall seconds.
	m["scenario.run_s"] = entry.wallS()
	m["scenario.plan_s"] = sum(spans, "scenario.plan").cpuS()
	m["scenario.fluid_s"] = fluid.cpuS()
	m["scenario.windows_s"] = windows.cpuS()

	// The trace builds each distinct engine spec once; a run builds
	// deploy.engines engines.
	builds := 0
	for _, s := range spans {
		if s.Name == "deploy.build" {
			builds++
		}
	}
	perBuild := ratio(c["deploy.engines"], float64(builds))
	m["deploy.build_s"] = build.cpuS() * perBuild
	m["deploy.build_mb"] = float64(build.AllocBytes) / 1e6 * perBuild

	// The request-level DES path: the whole entry call on a single
	// engine, the spot-checked windows on a hybrid run. What the
	// replayed arrival stream and engine builds do not account for is
	// the runner's own.
	des := 0.0
	switch {
	case c["hybrid.windows"] > 0:
		des = windows.cpuS()
		m["scenario.stitch_s"] = entry.cpuS() - windows.cpuS() - fluid.cpuS()
	case c["sim.events"] > 0:
		des = entry.cpuS()
	}
	if des > 0 {
		m["scenario.desreq_self_s"] = des - replay.cpuS() - build.cpuS()*perBuild
	}

	m["pool.jobs"] = float64(ps.JobsRun)
	m["pool.idle_s"] = ps.TokenIdle.Seconds()
	m["pool.peak_concurrent"] = float64(ps.PeakConcurrent)
	m["pool.parallel_eff"] = ratio(entry.cpuS(), entry.wallS()*float64(ps.Workers))

	events := c["sim.events"]
	m["sim.events_per_arrival"] = ratio(events, c["workload.arrivals"])
	m["sim.ns_per_event"] = ratio(float64(entry.CPUNS), events)
	m["sim.allocs_per_event"] = ratio(float64(entry.AllocObjects), events)
	m["sim.bytes_per_event"] = ratio(float64(entry.AllocBytes), events)

	m["workload.gen_s"] = replay.cpuS()
	m["workload.ns_per_arrival"] = ratio(float64(replay.CPUNS), c["workload.arrivals"])

	m["gc.cycles"] = float64(entry.GCCycles)
	m["gc.cpu_s"] = entry.GCCPU
	m["gc.cpu_frac"] = ratio(entry.GCCPU, entry.cpuS())
	return m
}

// child starts one child process and returns its records; a loop
// child is given the set's deadline.
func child(ctx context.Context, o options, mode string, workers int, until time.Time, stderr io.Writer) []*record {
	self, err := os.Executable()
	if err != nil {
		return []*record{(&record{Kind: mode}).fail("locating the benchmark binary: %v", err)}
	}
	cmd := exec.CommandContext(ctx, self, "-child", mode, "-workload", o.workload,
		"-seed", strconv.FormatUint(o.seed, 10), "-workers", strconv.Itoa(workers),
		"-trace", strconv.Itoa(o.trace), "-until", strconv.FormatInt(until.UnixNano(), 10))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	cmd.Env = childEnv(os.Environ())
	// A child outlives no parent that dies before waiting for it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	// Stamped last, so that set-up time starts as the process does.
	cmd.Args = append(cmd.Args, "-t0", strconv.FormatInt(time.Now().UnixNano(), 10))
	runErr := cmd.Run()
	var recs []*record
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		rec := &record{}
		if err := json.Unmarshal([]byte(line), rec); err != nil {
			return append(recs, (&record{Kind: mode}).fail("%s child printed a bad record: %v", mode, err))
		}
		recs = append(recs, rec)
	}
	if runErr != nil {
		recs = append(recs, (&record{Kind: mode}).fail("%s child: %v", mode, runErr))
	}
	return recs
}

// childEnv is the environment of a child process: the parent's, with
// the Go runtime set to hand memory it no longer needs back to the
// kernel with MADV_FREE rather than MADV_DONTNEED. A virtual machine
// that reports its free pages to its host hands memory freed with
// MADV_DONTNEED to the host, and the next run faults it back in at a
// cost set by the host's load; with MADV_FREE the process keeps the
// pages until the kernel is short of memory, so a run reuses the
// memory the runs before it mapped.
func childEnv(env []string) []string {
	debug := "madvdontneed=0"
	for i, kv := range env {
		if v, ok := strings.CutPrefix(kv, "GODEBUG="); ok {
			if v != "" {
				debug = v + "," + debug
			}
			return append(slices.Delete(slices.Clone(env), i, i+1), "GODEBUG="+debug)
		}
	}
	return append(slices.Clone(env), "GODEBUG="+debug)
}

// result is the JSON object the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// parent runs the closed loop and reports.
func parent(o options, stdout, stderr io.Writer) int {
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)

	// Set-up is short next to process start, so it is sampled more
	// often than runs are made.
	var setups []*record
	for i := 0; i < setupSamples && ctx.Err() == nil; i++ {
		setups = append(setups, child(ctx, o, "setup", 0, deadline, stderr)...)
	}
	all := child(ctx, o, "loop", 0, deadline, stderr)
	var warmups, runs, traced []*record
	for _, r := range all {
		switch r.Kind {
		case "warmup":
			warmups = append(warmups, r)
		case "run":
			runs = append(runs, r)
		case "trace":
			traced = append(traced, r)
		}
	}
	// A hybrid run must not depend on the pool: one serial run per
	// traced set checks that its outputs equal the parallel runs'.
	if o.workload == "mooc-hybrid" && o.trace == 1 && ctx.Err() == nil {
		all = append(all, child(ctx, o, "run", 1, deadline, stderr)...)
	}
	checkSet(all)
	all = append(all, setups...)

	res := result{Attempted: len(all), Metrics: map[string]metricValue{}}
	for i, r := range all {
		if len(r.Errors) > 0 {
			res.Failed++
			for _, e := range r.Errors {
				fmt.Fprintf(stderr, "perfbench: %s run %d (workers %d): %s\n", o.workload, i, r.Workers, e)
			}
		}
	}
	ok := okRecords(runs)
	okTraced := okRecords(traced)
	res.Correct = res.Failed == 0 && len(ok) > 0 && (o.trace == 0 || len(okTraced) > 0)

	fmt.Fprintf(stdout, "perfbench %s seed=%d trace=%d: %d runs attempted, %d failed\n",
		o.workload, o.seed, o.trace, res.Attempted, res.Failed)
	fmt.Fprintf(stdout, "  %-24s %14.6g %-8s (%d of %d runs)\n", "error_frac",
		ratio(float64(res.Failed), float64(res.Attempted)), "fraction", res.Failed, res.Attempted)
	if o.trace == 0 {
		for _, mt := range endToEnd {
			src := ok
			if mt.name == "setup_s" {
				src = okRecords(slices.Concat(setups, warmups))
			}
			vs := values(src, func(r *record) float64 { return hostMetric(r, mt.name) })
			// A run's peak memory falls on one of a few levels, set by
			// when the collector runs: a median jumps between them from
			// set to set, where a mean moves smoothly.
			stat, v := "median", median(vs)
			if mt.name == "peak_rss_mb" {
				stat, v = "mean", mean(vs)
			}
			res.Metrics[mt.name] = metricValue{v, mt.unit}
			printMetric(stdout, mt, stat, v, vs)
		}
	} else {
		overhead := ratio(
			median(values(okTraced, func(r *record) float64 { return r.Layers["scenario.run_s"] })),
			median(values(ok, func(r *record) float64 { return r.WallS }))) - 1
		for _, r := range okTraced {
			r.Layers["trace.overhead_frac"] = overhead
		}
		for _, mt := range perLayer {
			vs := values(okTraced, func(r *record) float64 { return r.Layers[mt.name] })
			res.Metrics[mt.name] = metricValue{median(vs), mt.unit}
			printMetric(stdout, mt, "median", median(vs), vs)
		}
		var spans []span
		for i, r := range okTraced {
			for _, s := range r.Spans {
				s.Run = i + 1
				spans = append(spans, s)
			}
		}
		if path, err := writeTrace(traceDir, o.workload, o.seed, spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing the trace: %v\n", err)
		} else {
			fmt.Fprintf(stdout, "  spans of %d traced runs written to %s\n", len(okTraced), path)
		}
	}
	if len(ok) > 0 {
		printSim(stdout, ok[0].Sim)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// checkSet fails every run whose outputs differ from the first good
// run's: the runs of a set repeat one config, so their outputs must be
// identical whatever the pool.
func checkSet(recs []*record) {
	var first *record
	for _, r := range recs {
		switch {
		case len(r.Errors) > 0:
		case first == nil:
			first = r
		case r.Fingerprint != first.Fingerprint:
			r.fail("outputs differ from those of the set's first run (workers %d vs %d)", r.Workers, first.Workers)
		}
	}
}

func okRecords(recs []*record) []*record {
	var ok []*record
	for _, r := range recs {
		if len(r.Errors) == 0 {
			ok = append(ok, r)
		}
	}
	return ok
}

func hostMetric(r *record, name string) float64 {
	switch name {
	case "wall_s":
		return r.WallS
	case "cpu_s":
		return r.CPUS
	case "alloc_mb":
		return r.AllocMB
	case "peak_rss_mb":
		return r.PeakRSSMB
	case "setup_s":
		return r.SetupS
	}
	panic("perfbench: no host metric " + name)
}

func values(recs []*record, f func(*record) float64) []float64 {
	vs := make([]float64, len(recs))
	for i, r := range recs {
		vs[i] = f(r)
	}
	return vs
}

// median of vs; 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean of vs; 0 for none.
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// printMetric prints a metric's value v, the stat of its values vs.
func printMetric(w io.Writer, mt metric, stat string, v float64, vs []float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	spread := ""
	if len(s) > 1 {
		spread = fmt.Sprintf(", min %.6g, max %.6g", s[0], s[len(s)-1])
	}
	fmt.Fprintf(w, "  %-24s %14.6g %-8s (%s of %d%s)\n", mt.name, v, mt.unit, stat, len(vs), spread)
}

// printSim prints the simulated statistics and exact counts, which are
// the same in every run of a set.
func printSim(w io.Writer, sim map[string]float64) {
	units := map[string]string{}
	for _, mt := range simulated {
		units[mt.name] = mt.unit
	}
	var names []string
	for n := range sim {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		u := units[n]
		if u == "" {
			u = "count"
			if n == "sim.cost_usd" {
				u = "USD"
			}
		}
		fmt.Fprintf(w, "  %-24s %14s %-8s (simulated; exact per seed)\n", n, strconv.FormatFloat(sim[n], 'g', -1, 64), u)
	}
}
