package workload

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"elearncloud/internal/sim"
)

// formula is the envelope, rate and user-pick formulas evaluated afresh
// at every query, with no state carried between queries — the
// reference the cursor must reproduce bit for bit. A nil members with
// shard unset is the unsharded stream.
type formula struct {
	g       *Generator
	shard   bool
	members []int
	steady  float64 // MaxRate, the stationary bound
}

func newFormula(g *Generator, shard bool, members []int) formula {
	return formula{g: g, shard: shard, members: members, steady: g.MaxRate()}
}

func (f formula) pop(t time.Duration) float64 {
	if f.g.cfg.Growth != nil {
		return f.g.cfg.Growth.At(t)
	}
	return float64(f.g.cfg.Students)
}

func (f formula) users(t time.Duration) int {
	if f.g.cfg.Growth == nil {
		return f.g.cfg.Students
	}
	n := int(math.Ceil(f.g.cfg.Growth.At(t)))
	if n < 1 {
		n = 1
	}
	if n > f.g.cfg.Students {
		n = f.g.cfg.Students
	}
	return n
}

func (f formula) active(n int) int { return sort.SearchInts(f.members, n) }

func (f formula) fullRate(t time.Duration) float64 {
	cfg := f.g.cfg
	base := f.pop(t) * cfg.ReqPerStudentHour / 3600
	rate := base * cfg.Diurnal.At(t)
	if cfg.Calendar != nil {
		rate *= cfg.Calendar.WeekAt(t).Mult
	}
	for _, c := range cfg.Crowds {
		if c.Active(t) {
			rate *= c.Mult
		}
	}
	for _, s := range cfg.Storms {
		rate *= s.MultAt(t)
	}
	for _, j := range cfg.Joins {
		rate *= j.MultAt(t)
	}
	return rate
}

func (f formula) rate(t time.Duration) float64 {
	if !f.shard {
		return f.fullRate(t)
	}
	n := f.users(t)
	return f.fullRate(t) * (float64(f.active(n)) / float64(n))
}

func (f formula) segmentEnd(t time.Duration) time.Duration {
	cfg := f.g.cfg
	until := t - t%time.Hour + time.Hour
	clampEdge := func(edge time.Duration) {
		if edge > t && edge < until {
			until = edge
		}
	}
	storming := false
	for _, c := range cfg.Crowds {
		clampEdge(c.Start)
		clampEdge(c.End)
	}
	for _, s := range cfg.Storms {
		clampEdge(s.Deadline - s.Ramp)
		clampEdge(s.Deadline)
		storming = storming || s.Active(t)
	}
	for _, j := range cfg.Joins {
		clampEdge(j.Start)
		clampEdge(j.Start + j.Window)
		storming = storming || j.Active(t)
	}
	if storming {
		if minuteEnd := t - t%time.Minute + time.Minute; minuteEnd < until {
			until = minuteEnd
		}
	}
	return until
}

func (f formula) quietBound(t, until time.Duration) float64 {
	cfg := f.g.cfg
	max := f.pop(until) * cfg.ReqPerStudentHour / 3600
	max *= math.Max(cfg.Diurnal.At(t), cfg.Diurnal.At(until))
	if cfg.Calendar != nil {
		max *= cfg.Calendar.WeekAt(t).Mult
	}
	return max
}

func (f formula) burstMult(t, until time.Duration) float64 {
	mult := 1.0
	for _, c := range f.g.cfg.Crowds {
		if c.Active(t) && c.Mult > 1 {
			mult *= c.Mult
		}
	}
	for _, s := range f.g.cfg.Storms {
		mult *= s.MaxOn(t, until)
	}
	for _, j := range f.g.cfg.Joins {
		mult *= j.MaxOn(t, until)
	}
	return mult
}

func (f formula) envelope(t time.Duration) (float64, time.Duration) {
	var max float64
	var until time.Duration
	if f.g.steady() {
		max, until = f.steady, sim.MaxTime
	} else {
		until = f.segmentEnd(t)
		max = f.quietBound(t, until) * f.burstMult(t, until)
	}
	if f.shard {
		share := float64(f.active(f.users(until))) / float64(f.users(t))
		max *= math.Min(1, share)
	}
	return max, until
}

func (f formula) pickUser(rng *sim.RNG, t time.Duration) int {
	if !f.shard {
		return rng.Intn(f.users(t))
	}
	return f.members[rng.Intn(f.active(f.users(t)))]
}

// stream is a reference arrival stream: the same NHPP kernel and RNG
// streams as ArrivalStream, sampling the formula.
func (f formula) stream(rng *sim.RNG, start time.Duration) func(horizon time.Duration) (Arrival, bool) {
	proc := sim.NewNHPPEnvelope(rng.Stream("arrivals"), f.rate, f.envelope, start)
	classRNG, userRNG := rng.Stream("classes"), rng.Stream("users")
	return func(horizon time.Duration) (Arrival, bool) {
		t, ok := proc.Next(horizon)
		if !ok {
			return Arrival{}, false
		}
		return Arrival{At: t, Class: f.g.MixAt(t).Sample(classRNG), UserID: f.pickUser(userRNG, t)}, true
	}
}

// cursorCase is one configuration of the differential test, with the
// drained window of its real stream.
type cursorCase struct {
	name        string
	cfg         Config
	start, stop time.Duration
}

func cursorCases() []cursorCase {
	day := 24 * time.Hour
	week := 7 * day
	return []cursorCase{
		{"campus-calendar-crowds", Config{
			Students:          3000,
			ReqPerStudentHour: 1,
			Calendar:          StandardSemester(),
			Crowds: []FlashCrowd{
				{Start: 7*day + 9*time.Hour, End: 7*day + 11*time.Hour, Mult: 6, ExamTraffic: true},
				{Start: 7*day + 10*time.Hour + 17*time.Second, End: 7*day + 10*time.Hour + 40*time.Minute, Mult: 2},
			},
		}, 7*day + 8*time.Hour + 30*time.Minute, 7*day + 10*time.Hour + 50*time.Minute},
		{"campus-calendar-crowds-storm", Config{
			Students:          3000,
			ReqPerStudentHour: 4,
			Calendar:          StandardSemester(),
			Crowds: []FlashCrowd{
				{Start: week - 2*time.Hour, End: week + time.Hour, Mult: 3, ExamTraffic: true},
			},
			Storms: []DeadlineStorm{
				{Deadline: week + 30*time.Minute + 7*time.Second, Ramp: 3 * time.Hour, PeakMult: 5},
			},
		}, week - 2*time.Hour - 30*time.Minute, week + time.Hour + 10*time.Minute},
		{"table11-logistic-global-storms-join", Config{
			Growth:            LogisticGrowth(50000, 500000, 4*week),
			ReqPerStudentHour: 0.2, // a fortieth of table11's: the shapes, not the volume
			Diurnal:           GlobalCohort(),
			Joins: []JoinStorm{{
				Start: 2*day + 18*time.Hour, Window: 30 * time.Minute, PeakMult: 5,
			}},
			Storms: []DeadlineStorm{
				{Deadline: 3*day + 20*time.Hour, Ramp: 75 * time.Minute, PeakMult: 4},
				{Deadline: 5*day + 20*time.Hour, Ramp: 75 * time.Minute, PeakMult: 4},
			},
		}, 3*day + 18*time.Hour, 3*day + 20*time.Hour + 10*time.Minute},
		{"linear-growth", Config{
			Growth:            LinearGrowth(500, 5000, 2*time.Hour),
			ReqPerStudentHour: 40,
		}, 0, 3 * time.Hour},
		{"join-inside-storm-ramp", Config{
			Growth:            LinearGrowth(800, 4000, 6*time.Hour),
			ReqPerStudentHour: 4,
			Diurnal:           GlobalCohort(),
			Storms: []DeadlineStorm{
				{Deadline: 5 * time.Hour, Ramp: 2 * time.Hour, PeakMult: 6, ExamTraffic: true},
			},
			Joins: []JoinStorm{
				{Start: 4*time.Hour + 10*time.Minute + 3*time.Second, Window: 30 * time.Minute, PeakMult: 4},
			},
		}, 2*time.Hour + 50*time.Minute, 5*time.Hour + 10*time.Minute},
	}
}

// edgeTimes are the instants where a segment cut could go wrong: hour
// and minute marks and every window edge, each with its neighbours.
func edgeTimes(cfg Config, start, stop time.Duration) []time.Duration {
	var edges []time.Duration
	for h := start - start%time.Hour; h <= stop; h += time.Hour {
		edges = append(edges, h)
	}
	for m := start - start%time.Minute; m <= stop; m += 7 * time.Minute {
		edges = append(edges, m)
	}
	for _, c := range cfg.Crowds {
		edges = append(edges, c.Start, c.End)
	}
	for _, s := range cfg.Storms {
		edges = append(edges, s.Deadline-s.Ramp, s.Deadline)
	}
	for _, j := range cfg.Joins {
		edges = append(edges, j.Start, j.Start+j.Window)
	}
	var out []time.Duration
	for _, e := range edges {
		out = append(out, e-time.Nanosecond, e, e+time.Nanosecond)
	}
	return out
}

// queryTimes is a query order that exercises the cursor's rebuilds:
// edges forward, random times, backward jumps and a few negative
// instants (where segmentEnd's hour arithmetic does not floor).
func queryTimes(cfg Config, start, stop time.Duration, rng *sim.RNG) []time.Duration {
	qs := edgeTimes(cfg, start, stop)
	span := float64(stop - start)
	for i := 0; i < 400; i++ {
		qs = append(qs, start+time.Duration(rng.Float64()*span))
	}
	t := stop
	for i := 0; i < 200; i++ {
		qs = append(qs, t)
		if i%3 == 2 {
			t += time.Duration(rng.Float64() * float64(10*time.Minute))
		} else {
			t -= time.Duration(rng.Float64() * float64(20*time.Minute))
		}
	}
	edges := edgeTimes(cfg, start, stop)
	for i := len(edges) - 1; i >= 0; i-- {
		qs = append(qs, edges[i])
	}
	return append(qs, -90*time.Minute, -30*time.Minute, -time.Nanosecond, 0, 10*time.Minute, -30*time.Minute)
}

// TestShardStreamCursorMatchesFormula is the cursor's differential
// test: its envelope (max, until), rate and user pick are bit-identical
// to the formula evaluated afresh — at every candidate of a real
// stream, at random times, across backward jumps and at exact edges —
// unsharded and for every shard at K=1 and K=4.
func TestShardStreamCursorMatchesFormula(t *testing.T) {
	for _, tc := range cursorCases() {
		g, err := NewGenerator(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		type view struct {
			name string
			cur  cursor
			ref  formula
		}
		views := []view{{"direct", cursor{g: g}, newFormula(g, false, nil)}}
		for _, K := range []int{1, 4} {
			sh := g.ShardBy(K)
			for k := 0; k < K; k++ {
				views = append(views, view{
					name: fmt.Sprintf("K%d/shard%d", K, k),
					cur:  sh.Shard(k).cursor(),
					ref:  newFormula(g, true, sh.Members(k)),
				})
			}
		}
		for _, v := range views {
			t.Run(tc.name+"/"+v.name, func(t *testing.T) {
				checkCursorQueries(t, tc, v.cur, v.ref)
				checkCursorStream(t, tc, v.cur, v.ref)
			})
		}
	}
}

// sameQuery fails unless the cursor and the formula agree bit for bit
// at t. (No t.Helper: it unwinds the stack on every call, and this runs
// at every thinning candidate.)
func sameQuery(t *testing.T, c *cursor, f formula, at time.Duration) {
	max, until := c.envelope(at)
	wantMax, wantUntil := f.envelope(at)
	if math.Float64bits(max) != math.Float64bits(wantMax) || until != wantUntil {
		t.Fatalf("envelope(%v) = (%v, %v), formula (%v, %v)", at, max, until, wantMax, wantUntil)
	}
	if r, want := c.rate(at), f.rate(at); math.Float64bits(r) != math.Float64bits(want) {
		t.Fatalf("rate(%v) = %v, formula %v", at, r, want)
	}
}

func checkCursorQueries(t *testing.T, tc cursorCase, cur cursor, f formula) {
	s := newStream(cur, sim.NewRNG(11), tc.start)
	refUsers := sim.NewRNG(11).Stream("users")
	for _, at := range queryTimes(tc.cfg, tc.start, tc.stop, sim.NewRNG(5)) {
		sameQuery(t, &s.cur, f, at)
		if f.shard && f.active(f.users(at)) == 0 {
			continue // no active member to draw
		}
		if got, want := s.pickUser(at), f.pickUser(refUsers, at); got != want {
			t.Fatalf("pickUser(%v) = %d, formula %d", at, got, want)
		}
	}
}

// checkCursorStream drains a real stream whose every envelope and rate
// query is checked against the formula, and compares its arrivals and
// thinning counts with the reference stream's.
func checkCursorStream(t *testing.T, tc cursorCase, cur cursor, f formula) {
	rng := sim.NewRNG(23)
	s := newStream(cur, rng, tc.start)
	s.proc = sim.NewNHPPEnvelope(rng.Stream("arrivals"),
		func(at sim.Time) float64 {
			sameQuery(t, &s.cur, f, at)
			return s.cur.rate(at)
		},
		func(at sim.Time) (float64, sim.Time) {
			sameQuery(t, &s.cur, f, at)
			return s.cur.envelope(at)
		}, tc.start)
	ref := f.stream(sim.NewRNG(23), tc.start)
	n := 0
	for {
		a, ok := s.Next(tc.stop)
		b, refOK := ref(tc.stop)
		if ok != refOK || a != b {
			t.Fatalf("arrival %d: cursor %+v (%v), formula %+v (%v)", n, a, ok, b, refOK)
		}
		if !ok {
			break
		}
		n++
	}
	if n < 100 && (!f.shard || len(f.members) != 0) {
		t.Fatalf("window too quiet to be meaningful: %d arrivals", n)
	}
}

// TestShardStreamsConcurrentDrainMatchesSerial drains two shards of one
// Sharding on their own goroutines and checks each equals its serial
// drain: the cursor lives on the stream, so shards sharing a Generator
// and a Sharding share no sampling state.
func TestShardStreamsConcurrentDrainMatchesSerial(t *testing.T) {
	tc := cursorCases()[2]
	g, err := NewGenerator(tc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := g.ShardBy(4)
	drain := func(k int) []Arrival {
		var out []Arrival
		sh.Shard(k).Generate(sim.NewRNG(3).Stream("shard"), tc.start, tc.stop, func(a Arrival) { out = append(out, a) })
		return out
	}
	serial := [][]Arrival{drain(1), drain(2)}
	concurrent := make([][]Arrival, 2)
	var wg sync.WaitGroup
	for i, k := range []int{1, 2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent[i] = drain(k)
		}()
	}
	wg.Wait()
	for i := range serial {
		if len(serial[i]) == 0 || len(serial[i]) != len(concurrent[i]) {
			t.Fatalf("shard %d: serial %d arrivals, concurrent %d", i+1, len(serial[i]), len(concurrent[i]))
		}
		for j := range serial[i] {
			if serial[i][j] != concurrent[i][j] {
				t.Fatalf("shard %d arrival %d: serial %+v, concurrent %+v", i+1, j, serial[i][j], concurrent[i][j])
			}
		}
	}
}
