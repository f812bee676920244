package scenario

import (
	"sync"
	"sync/atomic"
	"time"
)

// This file is the pool's telemetry: lock-free counters the batch
// runner updates as it schedules work, snapshotted by Pool.Stats. The
// paper's quantitative argument is about realized utilization of
// deployment models; these counters let the runner report its *own*
// realized utilization — how busy the pool's tokens actually were —
// next to the workload it ran (perfbench's pool.* census).
//
// Two rules keep the telemetry honest and cheap:
//
//   - Every update is a single atomic add or CAS-max on a counter that
//     lives for the pool's lifetime. Nothing here takes a lock, and
//     nothing here runs per simulated event — only per scheduled job,
//     per recruited helper, or per token hand-off, all of which are
//     rare next to the DES hot path.
//   - Telemetry never feeds back into scheduling or randomness, so the
//     determinism contract (see batch.go) is untouched: two runs that
//     differ only in their stats are byte-identical in their artifacts.

// poolStats is the pool's internal collector.
type poolStats struct {
	jobs      atomic.Uint64
	recruits  atomic.Uint64
	handoffs  atomic.Uint64
	donations atomic.Uint64
	// inFlight counts ForEach calls currently executing on the pool, at
	// every nesting level (a nested call and its ancestor both count).
	// A helper recruited while inFlight > 1 is a shared-capacity
	// recruit — see PoolStats.Handoffs for the exact semantics.
	inFlight atomic.Int64
	// netActive approximates concurrently *working* goroutines beyond
	// the root caller: live helpers minus callers currently donating
	// their slot while they block on their own helpers.
	netActive atomic.Int64
	peak      atomic.Int64
	idleNanos atomic.Int64

	// mu guards the sharded-run layout below — written once per
	// ShardedRun merge, far off the hot path, so a mutex is fine where
	// the per-job counters above must stay atomic.
	mu          sync.Mutex
	shards      int
	shardEvents []uint64
	// hybridFluidHours / hybridDESHours record the most recent
	// HybridRun's fidelity split — written once per hybrid run, same
	// off-hot-path regime as the shard layout.
	hybridFluidHours float64
	hybridDESHours   float64
}

// noteShards records the layout of the most recent merged sharded run:
// its shard count and per-shard event totals in shard-index order.
func (s *poolStats) noteShards(shards int, events []uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shards = shards
	s.shardEvents = append([]uint64(nil), events...)
}

// noteHybrid records the fidelity split of the most recent HybridRun:
// simulated hours integrated by the fluid model versus simulated at
// request level.
func (s *poolStats) noteHybrid(fluidHours, desHours float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hybridFluidHours = fluidHours
	s.hybridDESHours = desHours
}

// notePeak folds the current concurrency estimate (netActive plus one
// for the root caller) into the peak watermark.
func (s *poolStats) notePeak() {
	cur := s.netActive.Load() + 1
	for {
		old := s.peak.Load()
		if cur <= old || s.peak.CompareAndSwap(old, cur) {
			return
		}
	}
}

// noteIdle credits a token's parked time when it is taken from the
// pool. releasedAt is the timestamp the token carried into the channel.
func (s *poolStats) noteIdle(releasedAt time.Time) {
	if d := time.Since(releasedAt); d > 0 {
		s.idleNanos.Add(int64(d))
	}
}

// PoolStats is a point-in-time snapshot of a pool's realized-execution
// counters, safe to take while batches are running (every field is read
// atomically; the fields are individually exact but not mutually
// consistent to a single instant).
type PoolStats struct {
	// Workers is the pool's global concurrency cap (the -parallel
	// value).
	Workers int
	// JobsRun counts every job the pool executed, at every nesting
	// level: scenario jobs inside experiment batches, but also the
	// experiment-level and profile-level ForEach bodies that fan them
	// out.
	JobsRun uint64
	// HelperRecruits counts helper goroutines spawned — each one is a
	// free token converted into parallel execution.
	HelperRecruits uint64
	// Handoffs counts shared-capacity recruits: helpers recruited while
	// more than one batch was in flight on the pool, nesting levels
	// included. A flat single batch records zero; in a fully nested
	// run (the elbench topology, where the suite-level ForEach spans
	// the whole run) most recruits are handoffs by construction. The
	// counter deliberately does not track token identity, so it cannot
	// say whether a given token came from the initial fill or from a
	// drained batch — it measures how often the pool granted capacity
	// across batch boundaries at all, which is the grant a statically
	// partitioned per-level budget could not have made.
	Handoffs uint64
	// Donations counts callers that finished dispatching their own
	// indices and lent their slot to still-running batches while they
	// waited (reclaiming it before returning).
	Donations uint64
	// PeakConcurrent is the high-water estimate of simultaneously
	// working goroutines: live helpers, minus donors parked in waits,
	// plus one for the root caller. With a single root goroutine (the
	// elbench topology) it never exceeds Workers; concurrent root
	// callers on one pool are each assumed to be the same "plus one".
	PeakConcurrent int
	// TokenIdle is cumulative time tokens spent parked in the pool
	// between a release and the next acquisition (including the initial
	// fill). workers-1 tokens idling for a whole run means the cap was
	// never the bottleneck — the analogue of the paper's underutilized
	// private fleet.
	TokenIdle time.Duration
	// Shards and ShardEvents describe the most recent merged ShardedRun
	// on this pool: its shard count and per-shard DES event totals in
	// shard-index order. Both are zero/nil when no multi-shard run has
	// completed.
	Shards      int
	ShardEvents []uint64
	// HybridFluidHours and HybridDESHours describe the most recent
	// HybridRun on this pool: simulated hours integrated by the fluid
	// model versus simulated at request level. Both are zero when no
	// hybrid run has completed.
	HybridFluidHours float64
	HybridDESHours   float64
}

// Stats snapshots the pool's telemetry. Safe to call at any time, from
// any goroutine, including while batches are running.
func (p *Pool) Stats() PoolStats {
	s := &p.stats
	out := PoolStats{
		Workers:        p.workers,
		JobsRun:        s.jobs.Load(),
		HelperRecruits: s.recruits.Load(),
		Handoffs:       s.handoffs.Load(),
		Donations:      s.donations.Load(),
		PeakConcurrent: int(s.peak.Load()),
		TokenIdle:      time.Duration(s.idleNanos.Load()),
	}
	s.mu.Lock()
	out.Shards = s.shards
	out.ShardEvents = append([]uint64(nil), s.shardEvents...)
	out.HybridFluidHours = s.hybridFluidHours
	out.HybridDESHours = s.hybridDESHours
	s.mu.Unlock()
	return out
}
