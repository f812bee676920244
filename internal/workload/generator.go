package workload

import (
	"fmt"
	"math"
	"time"

	"elearncloud/internal/lms"
	"elearncloud/internal/sim"
)

// Arrival is one generated request arrival.
type Arrival struct {
	// At is the arrival's virtual time.
	At time.Duration `json:"at"`
	// Class is the LMS request class.
	Class lms.Class `json:"class"`
	// UserID identifies the issuing student in [0, Students).
	UserID int `json:"user"`
}

// Config parameterizes a Generator.
type Config struct {
	// Students is the active population size. With Growth set it is the
	// user-ID space instead: zero derives it from Growth.Max(), and an
	// explicit value must be at least that capacity.
	Students int
	// Growth optionally makes the active population a curve (MOOC
	// enrollment): the instantaneous rate scales with Growth.At(t)
	// instead of the constant Students.
	Growth *Growth
	// ReqPerStudentHour is the mean request rate per student during an
	// average hour (the diurnal profile redistributes it within a day).
	// Typical interactive LMS usage is 40-80 requests/student-hour.
	ReqPerStudentHour float64
	// Diurnal shapes the day; defaults to CampusDiurnal.
	Diurnal *DiurnalProfile
	// Calendar shapes the term; nil means every week is Teaching at 1.0.
	Calendar *Calendar
	// Crowds adds exam flash-crowd windows.
	Crowds []FlashCrowd
	// Storms adds deadline storms: asymmetric procrastination ramps
	// that build exponentially toward a submission cliff.
	Storms []DeadlineStorm
	// Joins adds live-session join storms: near-simultaneous arrivals
	// at a lecture start, decaying as stragglers trickle in.
	Joins []JoinStorm
	// TeachingMix and ExamMix override the request mixes; nil uses the
	// lms defaults.
	TeachingMix *lms.Mix
	ExamMix     *lms.Mix
}

// Generator produces a non-homogeneous Poisson stream of LMS arrivals.
type Generator struct {
	cfg         Config
	teachingMix *lms.Mix
	examMix     *lms.Mix
}

// NewGenerator validates cfg and builds a generator.
func NewGenerator(cfg Config) (*Generator, error) {
	if cfg.Growth != nil {
		capacity := int(math.Ceil(cfg.Growth.Max()))
		if cfg.Students == 0 {
			cfg.Students = capacity
		} else if cfg.Students < capacity {
			return nil, fmt.Errorf("workload: Students = %d is below the growth capacity %d", cfg.Students, capacity)
		}
	}
	if cfg.Students <= 0 {
		return nil, fmt.Errorf("workload: Students = %d, need > 0", cfg.Students)
	}
	if cfg.ReqPerStudentHour <= 0 {
		return nil, fmt.Errorf("workload: ReqPerStudentHour = %v, need > 0", cfg.ReqPerStudentHour)
	}
	for _, c := range cfg.Crowds {
		if err := c.sanity(); err != nil {
			return nil, err
		}
	}
	for _, s := range cfg.Storms {
		if err := s.sanity(); err != nil {
			return nil, err
		}
	}
	for _, j := range cfg.Joins {
		if err := j.sanity(); err != nil {
			return nil, err
		}
	}
	if cfg.Diurnal == nil {
		cfg.Diurnal = CampusDiurnal()
	}
	g := &Generator{cfg: cfg, teachingMix: cfg.TeachingMix, examMix: cfg.ExamMix}
	if g.teachingMix == nil {
		g.teachingMix = lms.TeachingMix()
	}
	if g.examMix == nil {
		g.examMix = lms.ExamMix()
	}
	return g, nil
}

// Students returns the configured population size (with Growth, the
// user-ID space: at least the growth capacity).
func (g *Generator) Students() int { return g.cfg.Students }

// Population returns the active population at t: Growth.At(t) when a
// growth curve is set, the constant Students otherwise.
func (g *Generator) Population(t time.Duration) float64 {
	if g.cfg.Growth != nil {
		return g.cfg.Growth.At(t)
	}
	return float64(g.cfg.Students)
}

// usersOf returns the user-ID range active under a population of pop
// (a Population value): at least 1, at most Students.
func (g *Generator) usersOf(pop float64) int {
	if g.cfg.Growth == nil {
		return g.cfg.Students
	}
	n := int(math.Ceil(pop))
	if n < 1 {
		n = 1
	}
	if n > g.cfg.Students {
		n = g.cfg.Students
	}
	return n
}

// Rate returns the instantaneous aggregate arrival rate (req/s) at t.
func (g *Generator) Rate(t time.Duration) float64 {
	return g.rateOf(t, g.Population(t))
}

// rateOf is Rate at t given Population(t), so a caller that already
// holds the population does not evaluate the growth curve again.
func (g *Generator) rateOf(t time.Duration, pop float64) float64 {
	base := pop * g.cfg.ReqPerStudentHour / 3600
	rate := base * g.cfg.Diurnal.At(t)
	if g.cfg.Calendar != nil {
		rate *= g.cfg.Calendar.WeekAt(t).Mult
	}
	for _, c := range g.cfg.Crowds {
		if c.Active(t) {
			rate *= c.Mult
		}
	}
	for _, s := range g.cfg.Storms {
		rate *= s.MultAt(t)
	}
	for _, j := range g.cfg.Joins {
		rate *= j.MultAt(t)
	}
	return rate
}

// MaxRate returns a global upper bound on Rate over any horizon. It
// sizes peak fleets; the thinning sampler uses the tighter piecewise
// Envelope instead, because on growth curves the global bound is far
// above the early rate. Rate multiplies every simultaneously-active
// window, so the bound compounds the peaks of windows that actually
// overlap — a join storm inside a deadline ramp really does stack —
// while disjoint windows contribute only the largest single peak.
func (g *Generator) MaxRate() float64 {
	pop := float64(g.cfg.Students)
	if g.cfg.Growth != nil {
		pop = g.cfg.Growth.Max()
	}
	base := pop * g.cfg.ReqPerStudentHour / 3600
	max := base * g.cfg.Diurnal.Peak()
	if g.cfg.Calendar != nil {
		max *= g.cfg.Calendar.PeakMult()
	}
	return max * g.windowPeakBound()
}

// windowPeakBound bounds the product of simultaneously-active window
// multipliers (crowds, storms, joins) over all time. The active set
// only changes at window edges, and every maximal active set is live
// just inside some window's start — so evaluating the product of the
// peaks of the windows active at each start covers every combination
// that can occur, without compounding windows that never overlap.
func (g *Generator) windowPeakBound() float64 {
	type window struct {
		start, end time.Duration
		peak       float64
	}
	var wins []window
	for _, c := range g.cfg.Crowds {
		if c.Mult > 1 {
			wins = append(wins, window{c.Start, c.End, c.Mult})
		}
	}
	for _, s := range g.cfg.Storms {
		if s.PeakMult > 1 {
			wins = append(wins, window{s.Deadline - s.Ramp, s.Deadline, s.PeakMult})
		}
	}
	for _, j := range g.cfg.Joins {
		if j.PeakMult > 1 {
			wins = append(wins, window{j.Start, j.Start + j.Window, j.PeakMult})
		}
	}
	best := 1.0
	for _, w := range wins {
		product := 1.0
		for _, o := range wins {
			if w.start >= o.start && w.start < o.end {
				product *= o.peak
			}
		}
		if product > best {
			best = product
		}
	}
	return best
}

// MixAt returns the request mix in force at time t: the exam mix inside
// exam weeks, exam flash crowds and exam-flagged storms, the teaching
// mix otherwise.
func (g *Generator) MixAt(t time.Duration) *lms.Mix {
	for _, c := range g.cfg.Crowds {
		if c.Active(t) && c.ExamTraffic {
			return g.examMix
		}
	}
	for _, s := range g.cfg.Storms {
		if s.Active(t) && s.ExamTraffic {
			return g.examMix
		}
	}
	for _, j := range g.cfg.Joins {
		if j.Active(t) && j.ExamTraffic {
			return g.examMix
		}
	}
	if g.cfg.Calendar != nil && g.cfg.Calendar.WeekAt(t).Kind == Exams {
		return g.examMix
	}
	return g.teachingMix
}

// Generate produces arrivals on [start, horizon) in time order, invoking
// fn for each, and returns the count. Identical (rng state, config)
// produce identical streams.
func (g *Generator) Generate(rng *sim.RNG, start, horizon time.Duration, fn func(Arrival)) int {
	return g.Stream(rng, start).drain(horizon, fn)
}

// ArrivalStream produces arrivals one at a time, so simulations can
// schedule lazily instead of materializing millions of events up front.
// It owns the sampling cursor its thinning envelope and rate read (see
// envelope.go), so a stream must stay on one goroutine; streams of one
// Generator or Sharding may run concurrently.
type ArrivalStream struct {
	cur      cursor
	proc     *sim.NHPP
	classRNG *sim.RNG
	userRNG  *sim.RNG
}

// Stream returns a lazy arrival stream starting at start.
func (g *Generator) Stream(rng *sim.RNG, start time.Duration) *ArrivalStream {
	return newStream(cursor{g: g}, rng, start)
}

// newStream builds a stream sampling through cur: the whole
// population's, or a shard's.
func newStream(cur cursor, rng *sim.RNG, start time.Duration) *ArrivalStream {
	s := &ArrivalStream{
		cur:      cur,
		classRNG: rng.Stream("classes"),
		userRNG:  rng.Stream("users"),
	}
	s.proc = sim.NewNHPPEnvelope(rng.Stream("arrivals"), s.cur.rate, s.cur.envelope, start)
	return s
}

// Next returns the next arrival strictly before horizon, or ok=false.
func (s *ArrivalStream) Next(horizon time.Duration) (Arrival, bool) {
	t, ok := s.proc.Next(horizon)
	if !ok {
		return Arrival{}, false
	}
	return Arrival{
		At:     t,
		Class:  s.cur.g.MixAt(t).Sample(s.classRNG),
		UserID: s.pickUser(t),
	}, true
}

// pickUser draws an arrival's user uniformly from the active
// population, or from the shard's active members. At K=1 members[i] ==
// i, so a one-shard stream consumes the RNG and yields the same value
// as the unsharded Intn(n) draw.
func (s *ArrivalStream) pickUser(t time.Duration) int {
	in := s.cur.at(t)
	if !s.cur.shard {
		return s.userRNG.Intn(in.users)
	}
	return s.cur.members[s.userRNG.Intn(in.active)]
}

// drain hands every arrival before horizon to fn and returns the count.
func (s *ArrivalStream) drain(horizon time.Duration, fn func(Arrival)) int {
	n := 0
	for {
		a, ok := s.Next(horizon)
		if !ok {
			return n
		}
		n++
		fn(a)
	}
}

// Thinning reports the stream's sampler efficiency so far: candidate
// arrivals proposed and accepted. Accepted/proposed near 1 means the
// piecewise envelope hugs the rate; the MOOC shapes are benchmarked to
// stay at or above ~50% (see BenchmarkMOOCAcceptance).
func (s *ArrivalStream) Thinning() (proposed, accepted uint64) {
	return s.proc.Proposed(), s.proc.Accepted()
}

// Record captures the arrivals on [start, horizon) as a Trace.
func (g *Generator) Record(rng *sim.RNG, start, horizon time.Duration) *Trace {
	tr := &Trace{Students: g.cfg.Students}
	g.Generate(rng, start, horizon, func(a Arrival) {
		tr.Arrivals = append(tr.Arrivals, a)
	})
	return tr
}
