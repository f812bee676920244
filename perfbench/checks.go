package main

import (
	"fmt"
	"math"

	"elearncloud/internal/scenario"
)

// The output checks. None compares against a committed value: each
// states an identity the simulator must keep whatever its model, so a
// change to the model does not have to edit them.

// checkReplay: the arrivals replayed from the engines' seeds are the
// arrivals the run counted.
func checkReplay(res *scenario.Result, replayed uint64) error {
	if res.Arrivals != replayed {
		return fmt.Errorf("replayed arrival stream has %d arrivals, the run counted %d", replayed, res.Arrivals)
	}
	return nil
}

// checkConservation: no outcome is counted that did not arrive.
func checkConservation(res *scenario.Result) error {
	if res.Arrivals == 0 {
		return fmt.Errorf("run counted no arrivals")
	}
	if res.Latency == nil || res.Latency.Count() == 0 {
		return fmt.Errorf("run recorded no latencies")
	}
	out := res.Rejected + res.Offline + uint64(res.KilledJobs)
	if res.FluidSimHours == 0 {
		// Outside a hybrid run Served holds request-level outcomes only.
		out += res.Served
	}
	if out > res.Arrivals {
		return fmt.Errorf("outcomes %d exceed arrivals %d", out, res.Arrivals)
	}
	return nil
}

// checkWindows: every spot-checked window keeps the seam identity
// Arrivals == Served + Rejected + Offline + CarriedOut, and the windows
// add up to the hybrid run's request-level totals.
func checkWindows(hybrid *scenario.Result, wins []*scenario.Result) error {
	var arrivals, events, rejected uint64
	for i, r := range wins {
		out := r.Served + r.Rejected + r.Offline + uint64(r.CarriedOut)
		if r.Arrivals != out {
			return fmt.Errorf("window %d: arrivals %d != served %d + rejected %d + offline %d + carried out %d",
				i, r.Arrivals, r.Served, r.Rejected, r.Offline, r.CarriedOut)
		}
		arrivals += r.Arrivals
		events += r.Events
		rejected += r.Rejected
	}
	if arrivals != hybrid.Arrivals || events != hybrid.Events || rejected != hybrid.Rejected {
		return fmt.Errorf("windows sum to %d arrivals, %d events, %d rejected; the hybrid run has %d, %d, %d",
			arrivals, events, rejected, hybrid.Arrivals, hybrid.Events, hybrid.Rejected)
	}
	return nil
}

// checkSweep: one result per config, every figure finite and every
// bill positive.
func checkSweep(cfgs []scenario.Config, res []*scenario.FluidResult) error {
	if len(res) != len(cfgs) {
		return fmt.Errorf("%d results for %d configs", len(res), len(cfgs))
	}
	for i, f := range res {
		if f == nil {
			return fmt.Errorf("config %d: no result", i)
		}
		for _, v := range []float64{f.VMHoursPublic, f.VMHoursPrivate, f.MeanPrivateUtil,
			f.OfferedRequests, f.EgressGB, f.CDNGB, f.Cost.Total()} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("config %d (%v, %d students): non-finite figure", i, cfgs[i].Kind, cfgs[i].Students)
			}
		}
		if !(f.Cost.Total() > 0) || !(f.CostPerStudentMonth(cfgs[i].Students) > 0) {
			return fmt.Errorf("config %d (%v, %d students): cost %g is not positive",
				i, cfgs[i].Kind, cfgs[i].Students, f.Cost.Total())
		}
	}
	return nil
}
