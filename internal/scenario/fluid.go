package scenario

import (
	"math"
	"time"

	"elearncloud/internal/cdn"
	"elearncloud/internal/cost"
	"elearncloud/internal/deploy"
	"elearncloud/internal/lms"
	"elearncloud/internal/metrics"
	"elearncloud/internal/workload"
)

// fluidStep is the integration step for FluidRun — and the grid the
// hybrid fidelity planner aligns its DES windows to, so a hybrid run's
// fluid segments step through exactly the instants a full FluidRun
// would, in the same order, accumulating the same floats.
const fluidStep = 5 * time.Minute

// FluidResult is the flow-level approximation's output: capacity, cost
// and utilization over long horizons, without per-request latency.
type FluidResult struct {
	// Kind echoes the deployment model.
	Kind deploy.Kind
	// Duration is the simulated horizon.
	Duration time.Duration

	// VMHoursPublic integrates elastic fleet size over time.
	VMHoursPublic float64
	// VMHoursPrivate integrates the fixed private fleet (always on).
	VMHoursPrivate float64
	// PrivateHosts is the owned hardware count.
	PrivateHosts int
	// PeakServers is the largest instantaneous fleet.
	PeakServers int
	// MeanPrivateUtil is the average fraction of the private fleet doing
	// useful work — §IV.B's underutilization argument made measurable.
	MeanPrivateUtil float64
	// OfferedRequests is the integrated arrival mass ∫rate·dt over the
	// horizon — the requests the flow model assumes are all served. The
	// hybrid stitcher uses the per-segment version of this integral as
	// the fluid side's served count.
	OfferedRequests float64
	// Rate and Servers are downsampled series for figures.
	Rate    *metrics.TimeSeries
	Servers *metrics.TimeSeries
	// ServerRankHours is the fleet's utilization duration curve:
	// element k holds how many hours the (k+1)-th public server was
	// running over the horizon. It feeds the reserved-instance
	// purchase-mix optimization (Table 8).
	ServerRankHours []float64
	// EgressGB estimates data served out of the public cloud.
	EgressGB float64
	// CDNGB estimates edge-delivered data (zero when the CDN is off).
	CDNGB float64
	// CDNHitRatio is the analytic edge hit ratio used.
	CDNHitRatio float64
	// Cost is the itemized bill.
	Cost cost.Report
}

// CostPerStudentMonth normalizes to USD/student/month.
func (r *FluidResult) CostPerStudentMonth(students int) float64 {
	months := r.Duration.Hours() / 730
	return cost.PerStudentMonth(r.Cost, students, months)
}

// fluidModel is the flow-level integrator's fixed state: everything
// derived from the config once, so integration can be applied to the
// whole horizon (FluidRun) or resumed segment by segment around DES
// windows (HybridRun) with identical arithmetic.
type fluidModel struct {
	cfg         Config // defaulted
	gen         *workload.Generator
	meanSvc     float64
	meanPayload float64
	// privServers is the fixed private fleet and privHosts the owned
	// hosts carrying it, both as deploy sizes them; pubShare is the
	// fraction of served bytes leaving the public cloud.
	privServers int
	privHosts   int
	pubShare    float64
	// videoByteShare and cdnHit parameterize the analytic CDN split.
	videoByteShare float64
	cdnHit         float64
}

// newFluidModel derives the integrator's fixed state from a defaulted
// config.
func newFluidModel(cfg Config) (*fluidModel, error) {
	cat, teaching := mixFor()
	gen, err := genFor(cfg)
	if err != nil {
		return nil, err
	}
	m := &fluidModel{
		cfg:         cfg,
		gen:         gen,
		meanSvc:     teaching.MeanService(cat),
		meanPayload: teaching.MeanPayload(cat),
		pubShare:    1.0,
	}
	sz, err := deploy.Size(deploy.Spec{
		Kind:            cfg.Kind,
		Students:        cfg.Students,
		Courses:         cfg.Courses,
		ExpectedPeakRPS: gen.MaxRate(),
		MeanServiceSec:  m.meanSvc,
		TargetUtil:      cfg.TargetUtil,
		Policy:          cfg.HybridPolicy,
	})
	if err != nil {
		return nil, err
	}
	m.privServers, m.privHosts = sz.PrivateServers, sz.PrivateHosts
	switch cfg.Kind {
	case deploy.Private:
		m.pubShare = 0
	case deploy.Hybrid:
		// Sensitive traffic stays in-house; the rest serves publicly.
		m.pubShare = 1 - teaching.SensitiveShare(cat)
	case deploy.Desktop:
		m.pubShare = 0
	}
	if cfg.EnableCDN {
		m.videoByteShare = teaching.PayloadShare(cat, lms.VideoChunk)
		cdnCfg := cdn.DefaultConfig(cfg.Courses)
		m.cdnHit = cdn.AnalyticHitRatio(cdnCfg.CatalogObjects, cdnCfg.CacheObjects, cdnCfg.ZipfS)
	}
	return m, nil
}

// neededAt returns the total servers the flow model wants at t.
func (m *fluidModel) neededAt(t time.Duration) int {
	needed := int(math.Ceil(m.gen.Rate(t) * m.meanSvc / m.cfg.TargetUtil))
	if needed < 1 {
		needed = 1
	}
	return needed
}

// split divides a server need between the public and private sides by
// deployment kind.
func (m *fluidModel) split(needed int) (pub, priv int) {
	switch m.cfg.Kind {
	case deploy.Public:
		pub = needed
	case deploy.Private:
		priv = m.privServers // always on
	case deploy.Hybrid:
		priv = m.privServers
		if needed > m.privServers {
			pub = needed - m.privServers
		}
	case deploy.Desktop:
		// no servers at all
	}
	return pub, priv
}

// fluidAccum carries the integration state across segments: the result
// being built plus the scalar accumulators that only finalize once the
// whole horizon is covered.
type fluidAccum struct {
	res         *FluidResult
	egressBytes float64
	cdnBytes    float64
	utilAccum   float64
	steps       int
	// hours is the total span integrated so far (the fluid side of a
	// hybrid run's fidelity split).
	hours float64
}

// newAccum starts an empty accumulator for one integration pass.
func (m *fluidModel) newAccum() *fluidAccum {
	return &fluidAccum{res: &FluidResult{
		Kind:     m.cfg.Kind,
		Duration: m.cfg.Duration,
		Rate:     metrics.NewTimeSeries("rate-rps"),
		Servers:  metrics.NewTimeSeries("servers"),
	}}
}

// integrate steps the flow model over [from, to), accumulating into
// acc. Calling it once over the whole horizon, or repeatedly over the
// horizon's quiet segments in time order with fluidStep-aligned
// boundaries, visits the same instants with the same accumulation
// order — the float-determinism property the empty-plan hybrid test
// pins against FluidRun.
func (m *fluidModel) integrate(acc *fluidAccum, from, to time.Duration) {
	res := acc.res
	stepHours := fluidStep.Hours()
	for t := from; t < to; t += fluidStep {
		rate := m.gen.Rate(t)
		needed := m.neededAt(t)

		pub, priv := m.split(needed)
		res.VMHoursPublic += float64(pub) * stepHours
		res.VMHoursPrivate += float64(priv) * stepHours
		for k := 0; k < pub; k++ {
			if k >= len(res.ServerRankHours) {
				res.ServerRankHours = append(res.ServerRankHours, 0)
			}
			res.ServerRankHours[k] += stepHours
		}
		if total := pub + priv; total > res.PeakServers {
			res.PeakServers = total
		}
		if m.privServers > 0 {
			busyPriv := math.Min(float64(needed), float64(m.privServers))
			acc.utilAccum += busyPriv / float64(m.privServers)
			acc.steps++
		}
		res.OfferedRequests += rate * fluidStep.Seconds()
		publicBytes := rate * fluidStep.Seconds() * m.meanPayload * m.pubShare
		if m.cfg.EnableCDN {
			video := publicBytes * m.videoByteShare
			acc.cdnBytes += video
			acc.egressBytes += (publicBytes - video) + video*(1-m.cdnHit)
		} else {
			acc.egressBytes += publicBytes
		}

		res.Rate.Add(t, rate)
		res.Servers.Add(t, float64(pub+priv))
		acc.hours += stepHours
	}
}

// finish seals an accumulator into the final FluidResult: derived
// scalars, downsampled series, host sizing and the bill.
func (m *fluidModel) finish(acc *fluidAccum) (*FluidResult, error) {
	cfg := m.cfg
	res := acc.res
	if acc.steps > 0 {
		res.MeanPrivateUtil = acc.utilAccum / float64(acc.steps)
	}
	res.EgressGB = acc.egressBytes / 1e9
	res.CDNGB = acc.cdnBytes / 1e9
	res.CDNHitRatio = m.cdnHit
	downsampleTo := cfg.Duration / 500 // keep figure series plottable
	if downsampleTo < fluidStep {
		downsampleTo = fluidStep
	}
	res.Rate = res.Rate.Downsample(downsampleTo)
	res.Servers = res.Servers.Downsample(downsampleTo)

	res.PrivateHosts = m.privHosts
	var err error
	res.Cost, err = bill(cfg, res.PrivateHosts, res.VMHoursPublic, res.EgressGB, res.CDNGB)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// FluidRun integrates the arrival-rate curve into capacity, utilization
// and cost. Use it for semester- and year-scale questions (Figures 3-4);
// use Run when latency distributions matter, and HybridRun when only
// the bursty windows do.
func FluidRun(cfg Config) (*FluidResult, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	m, err := newFluidModel(cfg)
	if err != nil {
		return nil, err
	}
	acc := m.newAccum()
	m.integrate(acc, 0, cfg.Duration)
	return m.finish(acc)
}
