// Package workload generates realistic e-learning traffic: diurnal
// day-shapes, a semester calendar with teaching/exam/vacation weeks,
// exam-day flash crowds, and a non-homogeneous Poisson arrival process
// over the lms request mix. Traces can be recorded and replayed as
// JSON for reproducible cross-model comparisons. figure1 plots the
// shapes; every scenario run consumes them.
//
// Entry points:
//
//   - NewGenerator(Config) is the main faucet: it drives a
//     sim NHPP whose rate is the product of the configured
//     DiurnalProfile (CampusDiurnal, FlatDiurnal, or a custom
//     NewDiurnalProfile), the Calendar week kind, and any FlashCrowd
//     windows, and yields an ArrivalStream of Arrivals classified by
//     the lms Mix.
//   - StandardSemester() is the 18-week Calendar (NewCalendar of Weeks
//     for custom terms) behind the semester-scale studies; WeekKind
//     distinguishes teaching, exam and vacation load.
//   - FlashCrowd describes an exam spike (start, end, multiplier,
//     exam-heavy traffic flag) — the §IV.A scalability stressor
//     table5, figure2 and examples/examday inject.
//   - The MOOC-scale family (mooc.go) models courses that outgrow a
//     campus: LogisticGrowth / LinearGrowth make the active population
//     a curve instead of a constant (Config.Growth),
//     SuperposeTimezones / GlobalCohort build the flattened day shape
//     of a multi-timezone cohort (plugs into Config.Diurnal), and
//     DeadlineStorm / JoinStorm (Config.Storms, Config.Joins) are the
//     procrastination ramp with a submission cliff and the
//     near-simultaneous lecture join rush. Generator.Envelope exposes
//     the piecewise thinning bound that keeps generation O(arrivals)
//     on those nonstationary shapes (BenchmarkMOOCAcceptance pins the
//     acceptance rate at 10^5 students); table9, figure10 and
//     examples/mooc consume them.
//   - Every ArrivalStream — Generator.Stream, a ShardGen's Stream, and
//     Generate, which drains one — samples that bound through its own
//     cursor (envelope.go). The cursor builds each envelope segment
//     once: segments end at every window edge and hour mark, and weeks
//     start on hour marks, so until, the growth curve at until, the
//     calendar, crowd and deadline-storm factors and a shard's active
//     members at until are constant on a segment. Per thinning
//     candidate it evaluates the growth curve once, shared by the
//     bound, the rate and the user pick. Any query outside the cached
//     segment rebuilds it, so the result is bit-identical to the
//     formula evaluated afresh, in any query order
//     (TestShardStreamCursorMatchesFormula); BenchmarkShardStream
//     measures the cost per arrival.
//   - Trace / ReadTrace record and replay a generated arrival sequence
//     as JSON, pinning one workload across deployment models.
package workload
