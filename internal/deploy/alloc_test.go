package deploy

import (
	"runtime"
	"testing"

	"elearncloud/internal/sim"
)

// moocSpec is a hybrid deployment for the 500k-student MOOC: the
// largest engine the scenario runs build.
func moocSpec() Spec {
	return Spec{
		Kind:            Hybrid,
		Students:        500_000,
		Courses:         500_000/25 + 1,
		ExpectedPeakRPS: 7000, // 500k students at 50 requests an hour
		MeanServiceSec:  0.03,
		Policy:          DefaultHybridPolicy(),
	}
}

// BenchmarkDeployBuild times building the 500k-student hybrid
// deployment: datacenters, sizing and the placed asset inventory.
func BenchmarkDeployBuild(b *testing.B) {
	spec := moocSpec()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, err := Build(sim.NewEngine(1), spec)
		if err != nil {
			b.Fatal(err)
		}
		d.Shutdown()
	}
}

// maxBuildBytes is the heap one 500k-student hybrid Build may allocate:
// twice the 36 KB it takes (Go 1.24, linux/amd64). The asset inventory
// is held per kind, so it does not grow with the institution; a
// per-asset store cost about 214 MB here.
const maxBuildBytes = 72_000

// TestDeployBuildAllocationBudget holds one 500k-student hybrid Build
// under maxBuildBytes.
func TestDeployBuildAllocationBudget(t *testing.T) {
	spec := moocSpec()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err := Build(sim.NewEngine(1), spec)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	d.Shutdown()
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("Build allocated %d bytes (%d private hosts)", bytes, d.PrivateHosts)
	if bytes > maxBuildBytes {
		t.Fatalf("Build allocated %d bytes, budget %d: the asset inventory or the datacenters grew with the institution again",
			bytes, maxBuildBytes)
	}
}
