package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"elearncloud/internal/deploy"
	"elearncloud/internal/lms"
	"elearncloud/internal/metamorph"
	"elearncloud/internal/network"
	"elearncloud/internal/scenario"
	"elearncloud/internal/sim"
	"elearncloud/internal/workload"
)

// bootGrace mirrors the runner's start-up delay before the first
// arrival: a replayed arrival stream starts at window start + bootGrace,
// exactly as the engine's does. The replay check fails if the two drift.
const bootGrace = 3 * time.Minute

// A bench is one workload: a set of inputs the benchmark runs. Each run
// is one call into scenario's public entry points (run); everything else
// is set-up before the call or checking and tracing after it.
type bench interface {
	// run makes the timed entry call.
	run() (*outcome, error)
	// check returns one message per failed output check.
	check(o *outcome) []string
	// layers makes the traced calls into each layer's public functions
	// after the entry call, recording a span around each, and returns
	// the per-layer counts they yield.
	layers(tr *tracer, o *outcome) (map[string]float64, error)
}

// outcome is what one entry call returned.
type outcome struct {
	res   []*scenario.Result      // exam-crowd's days, mooc-hybrid's run
	fluid []*scenario.FluidResult // semester-sweep
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"exam-crowd", "mooc-hybrid", "semester-sweep"}

// newWorkload builds the named workload's inputs from the seed. This is
// the set-up that setup_s times, together with process start.
func newWorkload(name string, seed uint64, pool *scenario.Pool, tr *tracer) (bench, error) {
	cfgSeed := sim.SeedFor(seed, name)
	switch name {
	case "exam-crowd":
		return newExamCrowd(cfgSeed, 2000, 2*time.Hour, pool), nil
	case "mooc-hybrid":
		return newMoocHybrid(moocHybridConfig(cfgSeed), pool, tr)
	case "semester-sweep":
		return &semesterSweep{cfgs: semesterSweepConfigs(cfgSeed, 8), pool: pool}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// examCrowdConfig is table5/figure2's exam day at a given size: a flat
// day on the public model with the reactive scaler and a 10x exam flash
// crowd over the middle half of the horizon.
func examCrowdConfig(seed uint64, students int, horizon time.Duration) scenario.Config {
	return scenario.Config{
		Seed:              seed,
		Kind:              deploy.Public,
		Students:          students,
		ReqPerStudentHour: 50,
		Duration:          horizon,
		Diurnal:           workload.FlatDiurnal(),
		Scaler:            scenario.ScalerReactive,
		Access:            network.UrbanBroadband,
		Crowds: []workload.FlashCrowd{{
			Start: horizon / 4, End: 3 * horizon / 4,
			Mult: 10, ExamTraffic: true,
		}},
	}
}

// moocHybridConfig is table11's course: the 50k→500k logistic MOOC over
// ten weeks with a launch join spike, two deadline storms and 4-shard
// DES windows.
func moocHybridConfig(seed uint64) scenario.Config {
	day := 24 * time.Hour
	week := 7 * day
	return scenario.Config{
		Seed:              seed,
		Kind:              deploy.Public,
		Growth:            workload.LogisticGrowth(50000, 500000, 4*week),
		ReqPerStudentHour: 8,
		Duration:          10 * week,
		Diurnal:           workload.GlobalCohort(),
		Scaler:            scenario.ScalerReactive,
		Joins: []workload.JoinStorm{{
			Start: 2*day + 18*time.Hour, Window: 30 * time.Minute, PeakMult: 5,
		}},
		Storms: []workload.DeadlineStorm{
			{Deadline: 3*day + 20*time.Hour, Ramp: 75 * time.Minute, PeakMult: 4},
			{Deadline: 5*day + 20*time.Hour, Ramp: 75 * time.Minute, PeakMult: 4},
		},
		Shards:          4,
		HybridIntensity: 1.5,
		HybridGuard:     10 * time.Minute,
	}
}

// semesterSweepConfigs is figure3's cost-crossover question: all four
// deployment models at n institution sizes spread log-evenly from 100 to
// 300k students, the interior sizes jittered by the seed by up to a
// fiftieth of a step either way, so that every seed does about the same
// work.
func semesterSweepConfigs(seed uint64, n int) []scenario.Config {
	rng := sim.NewRNG(seed)
	sem := workload.StandardSemester()
	kinds := []deploy.Kind{deploy.Public, deploy.Private, deploy.Hybrid, deploy.Desktop}
	lo, hi := math.Log(100), math.Log(300000)
	var cfgs []scenario.Config
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(max(n-1, 1))
		if i > 0 && i < n-1 {
			x += (rng.Float64() - 0.5) * (hi - lo) / float64(n-1) / 25
		}
		students := int(math.Round(math.Exp(x)))
		for _, kind := range kinds {
			cfgs = append(cfgs, scenario.Config{
				Seed:     sim.SeedFor(seed, fmt.Sprintf("%d/%s", students, kind)),
				Kind:     kind,
				Students: students,
				Duration: sem.Duration(),
				Calendar: sem,
			})
		}
	}
	return cfgs
}

// generator builds the arrival generator the runner builds for cfg.
func generator(cfg scenario.Config) (*workload.Generator, error) {
	return workload.NewGenerator(workload.Config{
		Students:          cfg.Students,
		Growth:            cfg.Growth,
		ReqPerStudentHour: cfg.ReqPerStudentHour,
		Diurnal:           cfg.Diurnal,
		Calendar:          cfg.Calendar,
		Crowds:            cfg.Crowds,
		Storms:            cfg.Storms,
		Joins:             cfg.Joins,
	})
}

// replay counts the arrivals of one engine's stream up to horizon.
type replay struct{ arrivals, proposed, accepted uint64 }

func (r *replay) drain(s *workload.ArrivalStream, horizon time.Duration) {
	for {
		if _, ok := s.Next(horizon); !ok {
			break
		}
		r.arrivals++
	}
	p, a := s.Thinning()
	r.proposed += p
	r.accepted += a
}

// deploySpec is the spec the runner hands deploy.Build for one engine
// of cfg whose fleet absorbs share of the peak.
func deploySpec(cfg scenario.Config, gen *workload.Generator, share float64) deploy.Spec {
	courses := cfg.Courses
	if courses <= 0 {
		courses = gen.Students()/25 + 1
	}
	return deploy.Spec{
		Kind:            cfg.Kind,
		Students:        gen.Students(),
		Courses:         courses,
		ExpectedPeakRPS: gen.MaxRate() * share,
		MeanServiceSec:  lms.TeachingMix().MeanService(lms.DefaultCatalog()),
		TargetUtil:      0.6,
	}
}

// buildDeploy times deploy.Build on spec with a fresh engine.
func buildDeploy(tr *tracer, seed uint64, spec deploy.Spec) error {
	sp := tr.start("deploy.build")
	dep, err := deploy.Build(sim.NewEngine(seed), spec)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("deploy.Build: %w", err)
	}
	dep.Shutdown()
	return nil
}

// --- exam-crowd -------------------------------------------------------

// examDays is how many independent exam days one exam-crowd run
// simulates, one single-engine scenario.Run per pool worker. On a shared
// machine each CPU's speed wanders on its own; a run that keeps both
// busy averages them, as the other workloads' runs do.
const examDays = 2

type examCrowd struct {
	cfgs []scenario.Config
	pool *scenario.Pool
}

func newExamCrowd(seed uint64, students int, horizon time.Duration, pool *scenario.Pool) *examCrowd {
	w := &examCrowd{pool: pool}
	for i := 0; i < examDays; i++ {
		w.cfgs = append(w.cfgs, examCrowdConfig(sim.SeedFor(seed, fmt.Sprintf("day/%d", i)), students, horizon))
	}
	return w
}

func (w *examCrowd) run() (*outcome, error) {
	b := scenario.NewBatch(0)
	for i, cfg := range w.cfgs {
		b.Add(strconv.Itoa(i), cfg)
	}
	runs, err := b.RunOn(w.pool)
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	for i := range w.cfgs {
		o.res = append(o.res, runs.Result(strconv.Itoa(i)))
	}
	return o, nil
}

// stream replays one engine's arrival stream from its seed.
func stream(cfg scenario.Config) (replay, error) {
	var r replay
	gen, err := generator(cfg)
	if err != nil {
		return r, err
	}
	r.drain(gen.Stream(sim.NewRNG(cfg.Seed).Stream("workload"), bootGrace), cfg.Duration)
	return r, nil
}

func (w *examCrowd) check(o *outcome) []string {
	if len(o.res) != len(w.cfgs) {
		return []string{fmt.Sprintf("%d results for %d exam days", len(o.res), len(w.cfgs))}
	}
	var fails []string
	for i, cfg := range w.cfgs {
		r, err := stream(cfg)
		if err != nil {
			return append(fails, err.Error())
		}
		fails = appendErr(fails, checkReplay(o.res[i], r.arrivals))
		fails = appendErr(fails, checkConservation(o.res[i]))
	}
	return fails
}

func (w *examCrowd) layers(tr *tracer, o *outcome) (map[string]float64, error) {
	var all replay
	for _, cfg := range w.cfgs {
		sp := tr.start("workload.replay")
		r, err := stream(cfg)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		all.arrivals += r.arrivals
		all.proposed += r.proposed
		all.accepted += r.accepted
	}
	if err := traceFluid(tr, w.cfgs); err != nil {
		return nil, err
	}
	// The days differ only in their seeds, so they build one spec.
	gen, err := generator(w.cfgs[0])
	if err != nil {
		return nil, err
	}
	if err := buildDeploy(tr, w.cfgs[0].Seed, deploySpec(w.cfgs[0], gen, 1)); err != nil {
		return nil, err
	}
	c := resultCounts(o.res, nil)
	c["workload.arrivals"] = float64(all.arrivals)
	c["workload.accept_ratio"] = ratio(float64(all.accepted), float64(all.proposed))
	c["deploy.engines"] = float64(len(w.cfgs))
	c["shard.count"] = 1
	c["shard.imbalance"] = 1
	return c, nil
}

// --- mooc-hybrid ------------------------------------------------------

type moocHybrid struct {
	cfg  scenario.Config
	plan *scenario.FidelityPlan
	pool *scenario.Pool
}

// newMoocHybrid plans the course's fidelity split as part of set-up.
func newMoocHybrid(cfg scenario.Config, pool *scenario.Pool, tr *tracer) (*moocHybrid, error) {
	sp := tr.start("scenario.plan")
	plan, err := scenario.PlanFidelity(cfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if len(plan.Windows) == 0 {
		return nil, fmt.Errorf("mooc-hybrid: the plan has no DES windows")
	}
	return &moocHybrid{cfg: cfg, plan: plan, pool: pool}, nil
}

func (w *moocHybrid) run() (*outcome, error) {
	res, err := scenario.HybridRun(w.cfg, w.pool)
	if err != nil {
		return nil, err
	}
	return &outcome{res: []*scenario.Result{res}}, nil
}

func (w *moocHybrid) check(o *outcome) []string {
	return appendErr(nil, checkConservation(o.res[0]))
}

// stream replays every shard engine's arrival stream in every window.
func (w *moocHybrid) stream() (replay, error) {
	var r replay
	gen, err := generator(w.cfg)
	if err != nil {
		return r, err
	}
	sh := gen.ShardBy(w.cfg.Shards)
	for i, win := range w.plan.Windows {
		winSeed := sim.SeedFor(w.cfg.Seed, fmt.Sprintf("hybrid/%d", i))
		for k := 0; k < w.cfg.Shards; k++ {
			seed := sim.SeedFor(winSeed, fmt.Sprintf("shard/%d", k))
			r.drain(sh.Shard(k).Stream(sim.NewRNG(seed).Stream("workload"), win.Start+bootGrace), win.End)
		}
	}
	return r, nil
}

func (w *moocHybrid) layers(tr *tracer, o *outcome) (map[string]float64, error) {
	if err := traceFluid(tr, []scenario.Config{w.cfg}); err != nil {
		return nil, err
	}
	wins := make([]*scenario.Result, len(w.plan.Windows))
	all := tr.start("scenario.windows")
	for i := range wins {
		sp := tr.start("scenario.window")
		r, err := scenario.HybridSpotCheck(w.cfg, w.pool, i)
		tr.end(sp)
		if err != nil {
			tr.end(all)
			return nil, fmt.Errorf("spot-check window %d: %w", i, err)
		}
		wins[i] = r
	}
	tr.end(all)
	hybrid := o.res[0]
	if err := checkWindows(hybrid, wins); err != nil {
		return nil, err
	}

	sp := tr.start("workload.replay")
	r, err := w.stream()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if err := checkReplay(hybrid, r.arrivals); err != nil {
		return nil, err
	}

	gen, err := generator(w.cfg)
	if err != nil {
		return nil, err
	}
	sh := gen.ShardBy(w.cfg.Shards)
	for k := 0; k < w.cfg.Shards; k++ {
		if err := buildDeploy(tr, w.cfg.Seed, deploySpec(w.cfg, gen, sh.CapShare(k))); err != nil {
			return nil, err
		}
	}

	c := resultCounts(o.res, wins)
	c["workload.arrivals"] = float64(r.arrivals)
	c["workload.accept_ratio"] = ratio(float64(r.accepted), float64(r.proposed))
	// Every window builds one engine per shard; the trace built each
	// shard's spec once.
	c["deploy.engines"] = float64(len(wins) * w.cfg.Shards)
	c["shard.count"] = float64(w.cfg.Shards)
	c["shard.imbalance"] = shardImbalance(wins)
	c["hybrid.windows"] = float64(len(w.plan.Windows))
	return c, nil
}

// --- semester-sweep ---------------------------------------------------

type semesterSweep struct {
	cfgs []scenario.Config
	pool *scenario.Pool
}

func (w *semesterSweep) run() (*outcome, error) {
	b := scenario.NewBatch(0)
	for i, cfg := range w.cfgs {
		b.AddFluid(strconv.Itoa(i), cfg)
	}
	runs, err := b.RunOn(w.pool)
	if err != nil {
		return nil, err
	}
	o := &outcome{fluid: make([]*scenario.FluidResult, len(w.cfgs))}
	for i := range w.cfgs {
		o.fluid[i] = runs.Fluid(strconv.Itoa(i))
	}
	return o, nil
}

func (w *semesterSweep) check(o *outcome) []string {
	return appendErr(nil, checkSweep(w.cfgs, o.fluid))
}

func (w *semesterSweep) layers(tr *tracer, o *outcome) (map[string]float64, error) {
	if err := traceFluid(tr, w.cfgs); err != nil {
		return nil, err
	}
	c := map[string]float64{}
	for _, f := range o.fluid {
		c["scale.peak_servers"] = math.Max(c["scale.peak_servers"], float64(f.PeakServers))
		c["scale.vm_hours"] += f.VMHoursPublic + f.VMHoursPrivate
		c["hybrid.fluid_hours"] += f.Duration.Hours()
	}
	return c, nil
}

// traceFluid runs FluidRun on each config inside a scenario.fluid span.
func traceFluid(tr *tracer, cfgs []scenario.Config) error {
	for _, cfg := range cfgs {
		sp := tr.start("scenario.fluid")
		_, err := scenario.FluidRun(cfg)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("FluidRun: %w", err)
		}
	}
	return nil
}

// resultCounts returns the exact counts of request-level results, summed
// (the fleet peak: the largest). With windows, the lms counts are the
// windows' own request-level outcomes, since a hybrid Result's Served
// also holds the fluid side's mass.
func resultCounts(res, wins []*scenario.Result) map[string]float64 {
	c := map[string]float64{}
	var served, rejected, admitted float64
	for _, r := range res {
		c["sim.events"] += float64(r.Events)
		c["lms.carried_in"] += float64(r.CarriedIn)
		c["lms.carried_out"] += float64(r.CarriedOut)
		c["scale.peak_servers"] = math.Max(c["scale.peak_servers"], float64(r.PeakServers))
		c["scale.vm_hours"] += r.VMHoursPublic + r.VMHoursPrivate
		c["hybrid.des_hours"] += r.DESSimHours
		c["hybrid.fluid_hours"] += r.FluidSimHours
		served += float64(r.Served)
		rejected += float64(r.Rejected)
		admitted += float64(r.CarriedOut + r.KilledJobs)
	}
	if wins != nil {
		served, rejected = 0, 0
		for _, r := range wins {
			served += float64(r.Served)
			rejected += float64(r.Rejected)
		}
	}
	admitted += served
	c["lms.served"] = served
	c["lms.rejected"] = rejected
	c["lms.admit_ratio"] = ratio(admitted, admitted+rejected)
	return c
}

// shardImbalance is the largest, over windows, of the busiest shard's
// event count over the mean shard's: the slowest shard sets a window's
// time.
func shardImbalance(wins []*scenario.Result) float64 {
	worst := 0.0
	for _, r := range wins {
		if len(r.ShardEvents) == 0 {
			continue
		}
		var top, sum uint64
		for _, e := range r.ShardEvents {
			top = max(top, e)
			sum += e
		}
		worst = math.Max(worst, ratio(float64(top)*float64(len(r.ShardEvents)), float64(sum)))
	}
	return worst
}

// fingerprint digests every observable field of an outcome, so two runs
// of one set compare in one string.
func fingerprint(o *outcome) string {
	h := sha256.New()
	for _, r := range o.res {
		fmt.Fprint(h, metamorph.Fingerprint(r))
	}
	for _, f := range o.fluid {
		fmt.Fprintf(h, "%v %d %d %s %s %s %s %s %+v\n", f.Kind, f.PrivateHosts, f.PeakServers,
			fmtFloat(f.VMHoursPublic), fmtFloat(f.VMHoursPrivate), fmtFloat(f.MeanPrivateUtil),
			fmtFloat(f.OfferedRequests), fmtFloat(f.EgressGB), f.Cost)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func appendErr(fails []string, err error) []string {
	if err != nil {
		fails = append(fails, err.Error())
	}
	return fails
}
