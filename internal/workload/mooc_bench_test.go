package workload

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"elearncloud/internal/sim"
)

// moocScaleCases are the MOOC shapes at 10^5 students — the scale the
// piecewise envelope exists for. The per-student rate is turned down so
// one benchmark iteration generates a few hundred thousand arrivals
// instead of tens of millions; thinning acceptance does not depend on
// the absolute rate, only on how tightly the envelope hugs the shape.
func moocScaleCases() []struct {
	name string
	cfg  Config
} {
	const students = 100000
	return []struct {
		name string
		cfg  Config
	}{
		{"logistic-growth-10x", Config{
			Growth:            LogisticGrowth(students/10, students, 24*time.Hour),
			ReqPerStudentHour: 0.1,
		}},
		{"cohort-ramp", Config{
			Growth:            LinearGrowth(students/4, students, 12*time.Hour),
			ReqPerStudentHour: 0.1,
			Diurnal:           FlatDiurnal(),
		}},
		{"timezone-waves", Config{
			Students:          students,
			ReqPerStudentHour: 0.1,
			Diurnal:           GlobalCohort(),
		}},
		{"deadline-storm", Config{
			Students:          students,
			ReqPerStudentHour: 0.1,
			Diurnal:           FlatDiurnal(),
			Storms: []DeadlineStorm{{
				Deadline: 24 * time.Hour, Ramp: 8 * time.Hour, PeakMult: 10,
				Tau: 2 * time.Hour, ExamTraffic: true,
			}},
		}},
		{"join-storm", Config{
			Students:          students,
			ReqPerStudentHour: 0.1,
			Diurnal:           FlatDiurnal(),
			Joins: []JoinStorm{{
				Start: 12 * time.Hour, Window: time.Hour, PeakMult: 8,
				Decay: 10 * time.Minute, ExamTraffic: true,
			}},
		}},
	}
}

// BenchmarkMOOCAcceptance measures arrival generation on each MOOC
// shape at 10^5 students and reports the thinning acceptance rate as
// the accept/proposed metric. The piecewise envelope must keep it at or
// above 0.5 on every shape (a single global bound manages ~0.1 on the
// 10x growth curve); the benchmark fails outright if it sinks below,
// so the committed number cannot rot silently.
func BenchmarkMOOCAcceptance(b *testing.B) {
	const horizon = 36 * time.Hour
	for _, c := range moocScaleCases() {
		b.Run(c.name, func(b *testing.B) {
			g, err := NewGenerator(c.cfg)
			if err != nil {
				b.Fatal(err)
			}
			var proposed, accepted uint64
			arrivals := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := g.Stream(sim.NewRNG(uint64(i)+1), 0)
				for {
					if _, ok := s.Next(horizon); !ok {
						break
					}
					arrivals++
				}
				p, a := s.Thinning()
				proposed += p
				accepted += a
			}
			b.StopTimer()
			if arrivals == 0 || proposed == 0 {
				b.Fatal("no arrivals generated")
			}
			rate := float64(accepted) / float64(proposed)
			b.ReportMetric(rate, "accept/proposed")
			b.ReportMetric(float64(arrivals)/float64(b.N), "arrivals/op")
			if rate < 0.5 {
				b.Fatalf("%s: thinning acceptance %.1f%% (%d/%d), want >= 50%%",
					c.name, rate*100, accepted, proposed)
			}
		})
	}
}

// BenchmarkShardStream measures NHPP thinning on the request path: one
// op drains table11's course (50k→500k logistic MOOC, timezone-
// superposed day, launch join spike, two deadline storms) as four shard
// streams over the DES window around the first deadline storm,
// [3d18h, 3d20h), as a 4-shard hybrid window does. It reports
// ns/arrival and allocs/arrival. The drain must not allocate; the
// runtime's malloc count is process-wide, so the gate tolerates the
// stray allocation of a profiler or the runtime itself (below one per
// thousand arrivals), not one per arrival.
func BenchmarkShardStream(b *testing.B) {
	day := 24 * time.Hour
	week := 7 * day
	g, err := NewGenerator(Config{
		Growth:            LogisticGrowth(50000, 500000, 4*week),
		ReqPerStudentHour: 8,
		Diurnal:           GlobalCohort(),
		Joins: []JoinStorm{{
			Start: 2*day + 18*time.Hour, Window: 30 * time.Minute, PeakMult: 5,
		}},
		Storms: []DeadlineStorm{
			{Deadline: 3*day + 20*time.Hour, Ramp: 75 * time.Minute, PeakMult: 4},
			{Deadline: 5*day + 20*time.Hour, Ramp: 75 * time.Minute, PeakMult: 4},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	const shards = 4
	start, end := 3*day+18*time.Hour, 3*day+20*time.Hour
	sh := g.ShardBy(shards)
	streams := make([]*ArrivalStream, shards)
	var arrivals, mallocs uint64
	var ms runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range streams {
			streams[k] = sh.Shard(k).Stream(sim.NewRNG(uint64(i)+1).Stream(fmt.Sprintf("shard/%d", k)), start)
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		for _, s := range streams {
			for {
				if _, ok := s.Next(end); !ok {
					break
				}
				arrivals++
			}
		}
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
	}
	b.StopTimer()
	if arrivals == 0 {
		b.Fatal("no arrivals generated")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(arrivals), "ns/arrival")
	perArrival := float64(mallocs) / float64(arrivals)
	b.ReportMetric(perArrival, "allocs/arrival")
	if perArrival >= 1e-3 {
		b.Fatalf("draining the shard streams allocated %d times over %d arrivals, want none", mallocs, arrivals)
	}
}
