package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"elearncloud/internal/sim"
)

func TestHistogramBasicStats(t *testing.T) {
	h := NewHistogram(0.001, 1.1)
	for _, v := range []float64{0.01, 0.02, 0.03, 0.04} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("Count = %d", h.Count())
	}
	if math.Abs(h.Mean()-0.025) > 1e-12 {
		t.Fatalf("Mean = %v", h.Mean())
	}
	if h.Max() != 0.04 || h.Min() != 0.01 {
		t.Fatalf("Min/Max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := DefaultLatency()
	if h.Mean() != 0 || h.Max() != 0 || h.Min() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

func TestHistogramIgnoresBadValues(t *testing.T) {
	h := DefaultLatency()
	h.Observe(math.NaN())
	h.Observe(-1)
	if h.Count() != 0 {
		t.Fatalf("Count = %d, want 0", h.Count())
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	// Quantile approximation must be within one growth factor of exact.
	rng := sim.NewRNG(101)
	h := NewHistogram(1e-4, 1.05)
	samples := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		v := rng.LogNormal(-3, 1)
		h.Observe(v)
		samples = append(samples, v)
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		exact := ExactQuantile(samples, q)
		approx := h.Quantile(q)
		if approx < exact/1.06 || approx > exact*1.06 {
			t.Fatalf("q=%v approx=%v exact=%v outside 5%% band", q, approx, exact)
		}
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	h := NewHistogram(0.001, 1.1)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100)
	}
	if got := h.Quantile(0); got != h.Min() {
		t.Fatalf("Q(0) = %v, want min %v", got, h.Min())
	}
	if got := h.Quantile(1); got != h.Max() {
		t.Fatalf("Q(1) = %v, want max %v", got, h.Max())
	}
	if h.P50() > h.P95() || h.P95() > h.P99() {
		t.Fatal("quantiles not monotone")
	}
}

func TestHistogramUnderflowBucket(t *testing.T) {
	h := NewHistogram(1.0, 1.5)
	for i := 0; i < 10; i++ {
		h.Observe(0.5) // below min
	}
	if h.Count() != 10 {
		t.Fatalf("Count = %d", h.Count())
	}
	if got := h.Quantile(0.5); got != 1.0 {
		t.Fatalf("underflow quantile = %v, want clamped to min 1.0", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(0.001, 1.1)
	b := NewHistogram(0.001, 1.1)
	for i := 0; i < 100; i++ {
		a.Observe(0.01)
		b.Observe(0.1)
	}
	a.Merge(b)
	if a.Count() != 200 {
		t.Fatalf("merged Count = %d", a.Count())
	}
	if a.Max() != b.Max() {
		t.Fatalf("merged Max = %v", a.Max())
	}
	// Below the 50% rank all mass is 0.01; above it all mass is 0.1.
	lo, hi := a.Quantile(0.45), a.Quantile(0.55)
	if lo < 0.009 || lo > 0.012 {
		t.Fatalf("Q(0.45) = %v, want ~0.01", lo)
	}
	if hi < 0.09 || hi > 0.12 {
		t.Fatalf("Q(0.55) = %v, want ~0.1", hi)
	}
	a.Merge(nil) // no-op
	if a.Count() != 200 {
		t.Fatal("Merge(nil) changed the histogram")
	}
}

func TestHistogramMergeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched merge")
		}
	}()
	NewHistogram(0.001, 1.1).Merge(NewHistogram(0.01, 1.1))
}

func TestHistogramReset(t *testing.T) {
	h := DefaultLatency()
	h.Observe(0.5)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("Reset did not clear histogram")
	}
	h.Observe(0.25)
	if h.Count() != 1 || h.Max() != 0.25 {
		t.Fatal("histogram unusable after Reset")
	}
}

func TestHistogramConstructorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero min":   func() { NewHistogram(0, 1.1) },
		"growth <=1": func() { NewHistogram(0.001, 1.0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: mean is always between min and max, and count equals the
// number of valid observations.
func TestHistogramInvariantProperty(t *testing.T) {
	f := func(raw []float64) bool {
		h := DefaultLatency()
		valid := 0
		for _, v := range raw {
			v = math.Abs(v)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			v = math.Mod(v, 1e6) // latencies are bounded; avoid sum overflow
			h.Observe(v)
			valid++
		}
		if h.Count() != uint64(valid) {
			return false
		}
		if valid == 0 {
			return true
		}
		return h.Mean() >= h.Min()-1e-12 && h.Mean() <= h.Max()+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	h := DefaultLatency()
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 1000)
	}
	s := h.Summarize()
	if s.Count != 1000 {
		t.Fatalf("Summary.Count = %d", s.Count)
	}
	if s.P50 <= 0 || s.P95 < s.P50 || s.P99 < s.P95 || s.Max < s.P99 {
		t.Fatalf("summary not monotone: %+v", s)
	}
}

func TestExactQuantile(t *testing.T) {
	samples := []float64{5, 1, 3, 2, 4}
	if got := ExactQuantile(samples, 0); got != 1 {
		t.Fatalf("Q0 = %v", got)
	}
	if got := ExactQuantile(samples, 1); got != 5 {
		t.Fatalf("Q1 = %v", got)
	}
	if got := ExactQuantile(samples, 0.5); got != 3 {
		t.Fatalf("Q0.5 = %v", got)
	}
	if got := ExactQuantile(nil, 0.5); got != 0 {
		t.Fatalf("empty = %v", got)
	}
	// Input must not be reordered.
	if samples[0] != 5 {
		t.Fatal("ExactQuantile mutated input")
	}
}

// sameHistogram reports whether a and b hold identical state: counts,
// sums, extremes, every bucket and the under-min tally.
func sameHistogram(a, b *Histogram) bool {
	if a.total != b.total || a.under != b.under ||
		math.Float64bits(a.sum) != math.Float64bits(b.sum) ||
		math.Float64bits(a.maxSeen) != math.Float64bits(b.maxSeen) ||
		math.Float64bits(a.minSeen) != math.Float64bits(b.minSeen) ||
		len(a.counts) != len(b.counts) {
		return false
	}
	for i := range a.counts {
		if a.counts[i] != b.counts[i] {
			return false
		}
	}
	return true
}

// TestObservePairMatchesTwoObserves checks ObservePair against two
// separate Observe calls, on a pair sharing DefaultLatency's geometry
// (one bucket computation) and on a pair whose geometries differ (each
// computes its own).
func TestObservePairMatchesTwoObserves(t *testing.T) {
	values := []float64{
		50e-6, 99e-6, 0, math.SmallestNonzeroFloat64, // below min
		math.NaN(), math.Inf(1), math.Inf(-1), -1, // dropped
		100e-6, 1, 1e300, math.MaxFloat64, // past maxBuckets for the fine geometry
	}
	rng := sim.NewRNG(9)
	for i := 0; i < 5000; i++ {
		values = append(values, rng.LogNormal(-2, 1.5))
	}
	pairs := []struct {
		name string
		a, b func() *Histogram
	}{
		{"shared-geometry", DefaultLatency, DefaultLatency},
		{"different-growth", DefaultLatency, func() *Histogram { return NewHistogram(100e-6, 1.1) }},
		{"fine-geometry", func() *Histogram { return NewHistogram(1e-3, 1.0001) }, DefaultLatency},
	}
	for _, p := range pairs {
		gotA, gotB, wantA, wantB := p.a(), p.b(), p.a(), p.b()
		for _, v := range values {
			ObservePair(gotA, gotB, v)
			wantA.Observe(v)
			wantB.Observe(v)
		}
		if !sameHistogram(gotA, wantA) || !sameHistogram(gotB, wantB) {
			t.Fatalf("%s: ObservePair state differs from two Observe calls", p.name)
		}
		if gotA.Count() == 0 || gotA.under == 0 {
			t.Fatalf("%s: values exercised no bucket or no under-min tally", p.name)
		}
	}
	if fine := NewHistogram(1e-3, 1.0001); fine.bucket(100) != maxBuckets-1 {
		t.Fatalf("100 in the fine geometry lands in bucket %d, want the last (%d)", fine.bucket(100), maxBuckets-1)
	}
}

// BenchmarkHistogramObserve records a served request's latency in the
// run-wide and the per-minute window histogram, as the scenario request
// path does: two Observe calls, or one ObservePair.
func BenchmarkHistogramObserve(b *testing.B) {
	rng := sim.NewRNG(1)
	lat := make([]float64, 4096)
	for i := range lat {
		lat[i] = rng.LogNormal(-2, 1.5)
	}
	b.Run("two-observes", func(b *testing.B) {
		run, window := DefaultLatency(), DefaultLatency()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v := lat[i%len(lat)]
			run.Observe(v)
			window.Observe(v)
		}
	})
	b.Run("pair", func(b *testing.B) {
		run, window := DefaultLatency(), DefaultLatency()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ObservePair(run, window, lat[i%len(lat)])
		}
	})
}
