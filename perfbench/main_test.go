package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"elearncloud/internal/deploy"
	"elearncloud/internal/scenario"
	"elearncloud/internal/sim"
	"elearncloud/internal/workload"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// tinyExam is an exam day small enough for a unit test.
func tinyExam(seed uint64) *examCrowd {
	return newExamCrowd(sim.SeedFor(seed, "exam-crowd"), 60, 40*time.Minute, scenario.NewPool(2))
}

// tinyHybrid is a one-day course with one deadline storm, run as a
// hybrid of 2-shard DES windows.
func tinyHybrid(t *testing.T, seed uint64) *moocHybrid {
	t.Helper()
	day := 24 * time.Hour
	cfg := scenario.Config{
		Seed:              sim.SeedFor(seed, "mooc-hybrid"),
		Kind:              deploy.Public,
		Students:          300,
		ReqPerStudentHour: 8,
		Duration:          day,
		Diurnal:           workload.FlatDiurnal(),
		Scaler:            scenario.ScalerReactive,
		Storms:            []workload.DeadlineStorm{{Deadline: 12 * time.Hour, Ramp: 30 * time.Minute, PeakMult: 4}},
		Shards:            2,
	}
	w, err := newMoocHybrid(cfg, scenario.NewPool(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func mustRun(t *testing.T, w bench) *outcome {
	t.Helper()
	o, err := w.run()
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, list := range [][]metric{endToEnd, simulated, perLayer} {
		for _, m := range list {
			if !nameRE.MatchString(m.name) {
				t.Errorf("metric name %q does not match %s", m.name, nameRE)
			}
			if !unitRE.MatchString(m.unit) {
				t.Errorf("metric %s: unit %q does not match %s", m.name, m.unit, unitRE)
			}
			if m.better != "lower" && m.better != "higher" {
				t.Errorf("metric %s: better is %q", m.name, m.better)
			}
		}
	}
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, m := range list {
			if seen[m.name] {
				t.Errorf("metric %s is listed twice", m.name)
			}
			seen[m.name] = true
		}
	}
	// A traced run emits exactly the per-layer catalog.
	got := layerMetrics(nil, map[string]float64{}, cost{}, scenario.PoolStats{Workers: 1})
	for _, m := range simulated {
		got[m.name] = 0
	}
	got["trace.overhead_frac"] = 0
	for _, m := range perLayer {
		if _, ok := got[m.name]; !ok {
			t.Errorf("layer metrics miss %s", m.name)
		}
		delete(got, m.name)
	}
	for n := range got {
		t.Errorf("layer metrics emit %s, which the catalog does not list", n)
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json, README.md and
// the catalog in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var bj struct {
		Command   []string `json:"command"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames)
	}
	same := func(kind string, got []entry, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the catalog %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i] != (entry{m.name, m.unit, m.better}) {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the catalog %s %s %s", kind, i, got[i], m.name, m.unit, m.better)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range perLayer {
		row := fmt.Sprintf("| `%s` | %s | %s | %s | %s |", m.name, m.unit, m.better, m.moves, m.on)
		if !strings.Contains(string(readme), row) {
			t.Errorf("README.md lacks the row %s", row)
		}
	}
}

func TestTinyRunDeterministicPerSeed(t *testing.T) {
	a := fingerprint(mustRun(t, tinyExam(1)))
	b := fingerprint(mustRun(t, tinyExam(1)))
	c := fingerprint(mustRun(t, tinyExam(2)))
	if a != b {
		t.Error("two runs of seed 1 differ")
	}
	if a == c {
		t.Error("seeds 1 and 2 give identical outputs")
	}
	s1 := semesterSweepConfigs(sim.SeedFor(1, "semester-sweep"), 8)
	s2 := semesterSweepConfigs(sim.SeedFor(2, "semester-sweep"), 8)
	if len(s1) != 32 || s1[0].Students != 100 || s1[31].Students != 300000 {
		t.Errorf("sweep sizes run %d..%d over %d configs, want 100..300000 over 32",
			s1[0].Students, s1[len(s1)-1].Students, len(s1))
	}
	if fmt.Sprint(s1) == fmt.Sprint(s2) {
		t.Error("seeds 1 and 2 give the same sweep")
	}
}

func TestChecksPassOnTinyRuns(t *testing.T) {
	exam := tinyExam(3)
	o := mustRun(t, exam)
	if fails := exam.check(o); len(fails) > 0 {
		t.Fatalf("exam-crowd checks fail: %v", fails)
	}
	if _, err := exam.layers(newTracer(), o); err != nil {
		t.Fatalf("exam-crowd layers: %v", err)
	}

	hy := tinyHybrid(t, 3)
	o = mustRun(t, hy)
	if fails := hy.check(o); len(fails) > 0 {
		t.Fatalf("hybrid checks fail: %v", fails)
	}
	// layers spot-checks every window and replays every shard's stream.
	c, err := hy.layers(newTracer(), o)
	if err != nil {
		t.Fatalf("hybrid layers: %v", err)
	}
	if c["hybrid.windows"] < 1 || c["deploy.engines"] != 2*c["hybrid.windows"] {
		t.Errorf("hybrid counts: %d windows, %d engines", int(c["hybrid.windows"]), int(c["deploy.engines"]))
	}

	sweep := &semesterSweep{cfgs: semesterSweepConfigs(5, 2), pool: scenario.NewPool(2)}
	if fails := sweep.check(mustRun(t, sweep)); len(fails) > 0 {
		t.Fatalf("sweep checks fail: %v", fails)
	}
}

func TestChecksRejectCorruptedResults(t *testing.T) {
	exam := tinyExam(4)
	o := mustRun(t, exam)
	res := *o.res[0]
	replayed := res.Arrivals

	corrupt := func(name string, err error) {
		t.Helper()
		if err == nil {
			t.Errorf("%s: check passed a corrupted result", name)
		}
	}
	bad := res
	bad.Arrivals++
	corrupt("replay", checkReplay(&bad, replayed))
	corrupt("exam check", errorsOf(exam.check(&outcome{res: []*scenario.Result{o.res[0], &bad}})))

	bad = res
	bad.Served = bad.Arrivals - bad.Rejected - bad.Offline + 1
	corrupt("conservation", checkConservation(&bad))

	bad = res
	bad.Arrivals = 0
	corrupt("no arrivals", checkConservation(&bad))

	// Seam identity: a window that lost a request, and windows that do
	// not add up to the hybrid run.
	win := scenario.Result{Arrivals: 10, Served: 6, Rejected: 2, Offline: 1, CarriedOut: 1, Events: 30}
	hybrid := scenario.Result{Arrivals: 20, Rejected: 4, Events: 60}
	if err := checkWindows(&hybrid, []*scenario.Result{&win, &win}); err != nil {
		t.Fatalf("seam check rejects a sound pair of windows: %v", err)
	}
	lost := win
	lost.Served--
	corrupt("seam identity", checkWindows(&hybrid, []*scenario.Result{&win, &lost}))
	short := hybrid
	short.Events++
	corrupt("window sums", checkWindows(&short, []*scenario.Result{&win, &win}))

	// A set whose third run's outputs differ fails that run only.
	bad = res
	bad.Served++
	set := []*record{{Fingerprint: fingerprint(o)}, {Fingerprint: fingerprint(o)}, {Fingerprint: fingerprint(&outcome{res: []*scenario.Result{&bad, o.res[1]}})}}
	checkSet(set)
	if len(set[0].Errors)+len(set[1].Errors) != 0 || len(set[2].Errors) != 1 {
		t.Errorf("set check: errors %q, %q, %q", set[0].Errors, set[1].Errors, set[2].Errors)
	}

	cfgs := semesterSweepConfigs(6, 1)
	sw := &semesterSweep{cfgs: cfgs, pool: scenario.NewPool(1)}
	fl := mustRun(t, sw).fluid
	if err := checkSweep(cfgs, fl); err != nil {
		t.Fatalf("sweep check rejects a sound sweep: %v", err)
	}
	nan := *fl[0]
	nan.EgressGB = math.NaN()
	corrupt("non-finite sweep", checkSweep(cfgs, append([]*scenario.FluidResult{&nan}, fl[1:]...)))
	free := *fl[1]
	free.Cost = scenario.FluidResult{}.Cost
	corrupt("free sweep", checkSweep(cfgs, append([]*scenario.FluidResult{fl[0], &free}, fl[2:]...)))
	corrupt("short sweep", checkSweep(cfgs, fl[1:]))
}

func errorsOf(fails []string) error {
	if len(fails) == 0 {
		return nil
	}
	return fmt.Errorf("%s", strings.Join(fails, "; "))
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Run: 1, Name: "scenario.windows", Start: 0, End: 100},
		{ID: 2, Parent: 1, Run: 1, Name: "scenario.window", Start: 10, End: 40},
		{ID: 3, Parent: 1, Run: 1, Name: "scenario.window", Start: 30, End: 60},
		{ID: 1, Run: 2, Name: "scenario.windows", Start: 0, End: 50},
	}
	got := map[string]layerTime{}
	for _, lt := range selfTimes(spans) {
		got[lt.Name] = lt
	}
	// Run 1's windows span is covered 10..60 by its children: 50ns of
	// self time; run 2's has no children.
	if w := got["scenario.windows"]; w.Count != 2 || w.SelfS != 100e-9 || w.WallS != 150e-9 {
		t.Errorf("windows: %+v", w)
	}
	if w := got["scenario.window"]; w.Count != 2 || w.SelfS != 60e-9 {
		t.Errorf("window: %+v", w)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	outer := tr.start("outer")
	inner := tr.start("inner")
	tr.end(inner)
	tr.end(outer)
	if len(tr.spans) != 2 || tr.spans[1].Parent != tr.spans[0].ID || tr.spans[0].Parent != 0 {
		t.Fatalf("spans: %+v", tr.spans)
	}
	var none *tracer
	none.end(none.start("ignored")) // a nil tracer records nothing
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestChildEnv(t *testing.T) {
	got := childEnv([]string{"HOME=/home/x"})
	if want := []string{"HOME=/home/x", "GODEBUG=madvdontneed=0"}; !slices.Equal(got, want) {
		t.Errorf("childEnv without GODEBUG = %q, want %q", got, want)
	}
	got = childEnv([]string{"GODEBUG=gctrace=1", "HOME=/home/x"})
	if want := []string{"HOME=/home/x", "GODEBUG=gctrace=1,madvdontneed=0"}; !slices.Equal(got, want) {
		t.Errorf("childEnv with GODEBUG = %q, want %q", got, want)
	}
}

func TestMemPeakSeesARunsAllocation(t *testing.T) {
	debug.FreeOSMemory()
	base := startMemPeak().stop()
	p := startMemPeak()
	buf := make([]byte, 64<<20)
	for i := range buf {
		buf[i] = 1
	}
	peak := p.stop()
	runtime.KeepAlive(buf)
	if peak < base+60 {
		t.Errorf("peak %.1f MB after touching 64 MB on a base of %.1f MB", peak, base)
	}
	if again := p.stop(); again != peak {
		t.Errorf("a stopped peak moved from %.1f to %.1f MB", peak, again)
	}
}
