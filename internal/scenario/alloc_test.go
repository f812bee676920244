package scenario

import (
	"runtime"
	"testing"
	"time"

	"elearncloud/internal/deploy"
	"elearncloud/internal/network"
	"elearncloud/internal/workload"
)

// maxAllocsPerEvent is the request path's allocation budget. The steady
// state allocates nothing per arrival — request slots, PS jobs and event
// structs are all recycled — so what remains is set-up and the growth
// of pools and series, which a few hundred thousand events amortize far
// below this line. One closure per arrival would cost about 0.3.
const maxAllocsPerEvent = 0.05

// TestExamDayAllocationBudget runs a short exam day through the whole
// request path (arrivals, processor-sharing servers, transfers, the
// reactive scaler, metrics) and holds heap allocations per fired event
// under maxAllocsPerEvent.
func TestExamDayAllocationBudget(t *testing.T) {
	cfg := Config{
		Seed:              1,
		Kind:              deploy.Public,
		Students:          500,
		ReqPerStudentHour: 50,
		Duration:          time.Hour,
		Diurnal:           workload.FlatDiurnal(),
		Scaler:            ScalerReactive,
		Access:            network.UrbanBroadband,
		Crowds: []workload.FlashCrowd{{
			Start: 15 * time.Minute, End: 45 * time.Minute, Mult: 10, ExamTraffic: true,
		}},
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events < 200_000 {
		t.Fatalf("exam day fired %d events; the budget needs at least 200k to amortize set-up", res.Events)
	}
	mallocs := after.Mallocs - before.Mallocs
	perEvent := float64(mallocs) / float64(res.Events)
	t.Logf("%d allocations over %d events = %.4f per event", mallocs, res.Events, perEvent)
	if perEvent >= maxAllocsPerEvent {
		t.Fatalf("%d allocations over %d events = %.4f per event, budget %v: something on the request path allocates per request again",
			mallocs, res.Events, perEvent, maxAllocsPerEvent)
	}
}
