package workload

// This file holds the piecewise thinning envelope and the sampling
// cursor every ArrivalStream reads it through.
//
// An envelope segment [start, until) runs to the next hour mark, cut
// short at every crowd, storm and join edge and, while a storm or join
// is active, at the next minute mark (segmentEnd). Most of the bound is
// therefore constant on a segment, and the cursor computes it once per
// segment instead of once per thinning candidate:
//
//   - until itself: every t in [start, until) lies in start's hour
//     (and, while storming, start's minute), and no window edge lies in
//     (start, until), so segmentEnd(t) == until;
//   - Growth.At(until), the pop·R/3600 base, Diurnal.At(until) and the
//     shard's members active at until: functions of until alone;
//   - the calendar multiplier: weeks start on hour marks, so the week
//     of t is the week of start;
//   - the crowd factors and the deadline storms' MaxOn(t, until): no
//     crowd or storm edge lies in (start, until), so a window is active
//     either on the whole segment or on none of it, and a storm's bound
//     depends on min(Deadline, until) only.
//
// What moves with t stays per instant: Diurnal.At(t), each join storm's
// MaxOn(t, until) (its bound sits at the overlap's start), and the
// population Growth.At(t) behind the rate, the user pick and a shard's
// share denominator — evaluated once per instant and shared by all
// three. Every factor is multiplied in the order the bound formula
// always used, so the cursor's bound, rate and user draws are
// bit-identical to evaluating the formula afresh at each query
// (TestShardStreamCursorMatchesFormula).

import (
	"math"
	"sort"
	"time"

	"elearncloud/internal/sim"
)

// Envelope returns the piecewise-constant thinning bound the generator
// samples under. For stationary-bound configs (no growth, no storms,
// no joins) it is a single segment at MaxRate. For MOOC shapes it
// re-bounds every hour (every minute inside an active storm or join
// window, where the multiplier moves on minute scales), using
// monotonicity of the growth curve and the storm shapes, so thinning
// acceptance stays high while the population grows 10x.
//
// Streams sample this bound through a per-stream cursor that builds
// each segment once (see the file comment). The function returned here
// builds the segment afresh on every call, so it is exact for queries
// in any order and safe to share between goroutines.
func (g *Generator) Envelope() sim.EnvelopeFunc {
	return func(t sim.Time) (float64, sim.Time) {
		c := cursor{g: g}
		return c.envelope(t)
	}
}

// steady reports whether the bound is stationary: without growth,
// storms or joins, MaxRate bounds the rate tightly enough everywhere.
func (g *Generator) steady() bool {
	return g.cfg.Growth == nil && len(g.cfg.Storms) == 0 && len(g.cfg.Joins) == 0
}

// segmentEnd returns the end of the envelope segment starting at t:
// the next hour mark, tightened around shape edges so a bound never
// straddles a window boundary loosely, and re-bounded minute-by-minute
// while an exponential storm shape is actually moving.
func (g *Generator) segmentEnd(t time.Duration) time.Duration {
	until := t - t%time.Hour + time.Hour
	clampEdge := func(edge time.Duration) {
		if edge > t && edge < until {
			until = edge
		}
	}
	storming := false
	for _, c := range g.cfg.Crowds {
		clampEdge(c.Start)
		clampEdge(c.End)
	}
	for _, s := range g.cfg.Storms {
		clampEdge(s.Deadline - s.Ramp)
		clampEdge(s.Deadline)
		storming = storming || s.Active(t)
	}
	for _, j := range g.cfg.Joins {
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

// segment is the part of the envelope bound that is constant on one
// segment [start, until).
type segment struct {
	g            *Generator
	start, until time.Duration
	// steady marks the stationary bound: max holds for all time.
	steady bool
	max    float64

	pop     float64 // Population(until): the growth curve's segment maximum
	base    float64 // pop·ReqPerStudentHour/3600
	diurnal float64 // Diurnal.At(until)
	week    float64 // the calendar week's multiplier (with a calendar)
	burst   float64 // crowd × deadline-storm factors of the burst bound
	top     int     // shard members active at until (shard cursors only)
}

// newSegment evaluates the constant factors of the bound over
// [start, until). BurstWindows passes an until clamped to its horizon;
// the cursor passes segmentEnd(start).
func (g *Generator) newSegment(start, until time.Duration) segment {
	s := segment{g: g, start: start, until: until, pop: g.Population(until)}
	s.base = s.pop * g.cfg.ReqPerStudentHour / 3600
	s.diurnal = g.cfg.Diurnal.At(until)
	if g.cfg.Calendar != nil {
		s.week = g.cfg.Calendar.WeekAt(start).Mult
	}
	s.burst = 1.0
	for _, c := range g.cfg.Crowds {
		if c.Active(start) && c.Mult > 1 {
			s.burst *= c.Mult
		}
	}
	for _, st := range g.cfg.Storms {
		s.burst *= st.MaxOn(start, until)
	}
	return s
}

// bound returns the envelope's rate bound at t: the quiet bound scaled
// by the burst multiplier bound.
func (s *segment) bound(t time.Duration) float64 {
	if s.steady {
		return s.max
	}
	return s.quiet(t) * s.burstMult(t)
}

// quiet bounds the rate over [t, until) ignoring crowd, storm and join
// windows: population, diurnal shape and calendar only. Diurnal is
// linear between hour anchors and [t, until) never crosses one, so the
// endpoints bound the segment.
func (s *segment) quiet(t time.Duration) float64 {
	max := s.base * math.Max(s.g.cfg.Diurnal.At(t), s.diurnal)
	if s.g.cfg.Calendar != nil {
		max *= s.week
	}
	return max
}

// burstMult bounds the product of crowd/storm/join multipliers over
// [t, until) — the factor by which the segment's bound exceeds its
// quiet baseline. This is the quantity the hybrid fidelity planner
// classifies on: a segment is "bursty" exactly when burstMult clears
// the intensity threshold.
func (s *segment) burstMult(t time.Duration) float64 {
	mult := s.burst
	for _, j := range s.g.cfg.Joins {
		mult *= j.MaxOn(t, s.until)
	}
	return mult
}

// cursor is one stream's sampling state: the segment of the last query
// and the population at the last instant. A thinning sampler queries
// the envelope, the rate and the user pick at each candidate in time
// order, so the segment is built once per segment and the growth curve
// evaluated once per candidate. A query outside the cached segment, in
// either direction, rebuilds it; the cursor is therefore exact for any
// query order, but it is not safe for concurrent use.
type cursor struct {
	g *Generator
	// shard marks a shard's cursor; members are then the shard's user
	// IDs, ascending (possibly none).
	shard   bool
	members []int
	seg     segment
	now     instant
}

// instant is what the rate, the envelope and the user pick share at
// one query time.
type instant struct {
	t      time.Duration
	pop    float64 // Population(t)
	users  int     // users(t); zero marks an empty cache
	active int     // shard members with ID < users
}

// seek returns the segment containing t, building it if the cached one
// does not. A segment that starts before zero is never reused: there
// the hour arithmetic in segmentEnd does not floor, so its until does
// not hold for later instants.
func (c *cursor) seek(t time.Duration) *segment {
	s := &c.seg
	if s.steady || (s.start >= 0 && t >= s.start && t < s.until) {
		return s
	}
	if c.g.steady() {
		*s = segment{g: c.g, steady: true, max: c.g.MaxRate(), until: sim.MaxTime, pop: c.g.Population(sim.MaxTime)}
	} else {
		*s = c.g.newSegment(t, c.g.segmentEnd(t))
	}
	if c.shard {
		s.top = c.activeOf(c.g.usersOf(s.pop))
	}
	return s
}

// at returns the population quantities at t, computing them once per
// instant.
func (c *cursor) at(t time.Duration) *instant {
	in := &c.now
	if in.users != 0 && in.t == t {
		return in
	}
	in.t = t
	in.pop = c.g.Population(t)
	in.users = c.g.usersOf(in.pop)
	if c.shard {
		in.active = c.activeOf(in.users)
	}
	return in
}

// activeOf returns the number of the shard's members with ID < n — the
// shard's share of an active population of n users.
func (c *cursor) activeOf(n int) int {
	return sort.SearchInts(c.members, n)
}

// envelope is the thinning bound at t. A shard scales the full bound
// by an upper bound on its active share over the segment: with n
// growing monotonically from n(t) to n(until), the share c(n)/n is
// bounded by c(n(until))/n(t) — c is nondecreasing and 1/n
// nonincreasing — clamped to 1 since a share never exceeds one. The
// clamp also makes K=1 exact: there c(n)=n, the ratio is >= 1, and the
// factor is exactly 1.0, leaving the base bound bit-identical.
func (c *cursor) envelope(t sim.Time) (float64, sim.Time) {
	s := c.seek(t)
	max := s.bound(t)
	if c.shard {
		share := float64(s.top) / float64(c.at(t).users)
		max *= math.Min(1, share)
	}
	return max, s.until
}

// rate is the arrival rate at t; a shard's is the full rate times the
// fraction of active users it owns.
func (c *cursor) rate(t sim.Time) float64 {
	in := c.at(t)
	r := c.g.rateOf(t, in.pop)
	if c.shard {
		r *= float64(in.active) / float64(in.users)
	}
	return r
}
