package scenario

import (
	"elearncloud/internal/lms"
	"elearncloud/internal/metrics"
	"elearncloud/internal/network"
	"elearncloud/internal/sim"
)

// requestPath is one engine's admitted-request bookkeeping: the slots
// that carry a request from cluster admission through its response
// transfer, and the outcome tallies those slots settle into.
//
// A request's life is two callbacks, "PS done → begin transfer" and
// "transfer done → settle". Each slot binds both once, when it is made,
// and goes back on the free list when its request settles, so the
// request path allocates with peak concurrency, not with arrivals.
type requestPath struct {
	eng        *sim.Engine
	netRNG     *sim.RNG
	res        *Result
	windowHist *metrics.Histogram

	egressBytes float64
	// live counts real requests admitted to a cluster that have not yet
	// settled as served or killed — the queue mass a hybrid window hands
	// back across its closing seam (CarriedOut). It is maintained
	// independently of the outcome counters so the seam conservation
	// identity is a genuine cross-check, not an echo.
	live int
	free *request
}

// request is one admitted request's slot.
type request struct {
	rp      *requestPath
	path    *network.Path
	egress  bool // bill the response bytes as public egress
	payload float64
	start   sim.Time

	psDone       func(killed bool) // r.processed, bound once
	transferDone func()            // r.delivered, bound once
	next         *request          // free-list link
}

// admit submits a real request to cluster and reports whether it was
// admitted. Its response will travel path; egress bills the payload.
func (p *requestPath) admit(cluster *lms.Cluster, service float64, path *network.Path, egress bool, payload float64) bool {
	r := p.free
	if r == nil {
		r = &request{rp: p}
		r.psDone = r.processed
		r.transferDone = r.delivered
	} else {
		p.free = r.next
	}
	r.path, r.egress, r.payload, r.start = path, egress, payload, p.eng.Now()
	if !cluster.Submit(service, r.psDone) {
		p.release(r)
		return false
	}
	p.live++
	return true
}

// release returns a settled slot to the free list.
func (p *requestPath) release(r *request) {
	r.next = p.free
	p.free = r
}

// processed runs when the server finishes the request: the response
// starts its transfer, or, when a host failure killed the request, the
// slot settles as killed.
func (r *request) processed(killed bool) {
	p := r.rp
	if killed {
		p.res.KilledJobs++
		p.live--
		p.release(r)
		return
	}
	tt := r.path.TransferTime(p.netRNG, r.payload)
	r.path.Begin()
	p.eng.Schedule(sim.Seconds(tt), "transfer", r.transferDone)
}

// delivered runs when the response lands: the request settles as
// served.
func (r *request) delivered() {
	p := r.rp
	r.path.End()
	lat := sim.ToSeconds(p.eng.Now() - r.start)
	metrics.ObservePair(p.res.Latency, p.windowHist, lat)
	p.res.Served++
	p.live--
	if r.egress {
		p.egressBytes += r.payload
	}
	p.release(r)
}
