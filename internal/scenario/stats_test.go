package scenario

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolStatsSerialBaseline: a one-worker pool is the serial reference
// path, and its telemetry must say so — every job ran, nothing was
// recruited, handed off, or donated, and realized concurrency peaked at
// exactly the calling goroutine.
func TestPoolStatsSerialBaseline(t *testing.T) {
	t.Parallel()
	p := NewPool(1)
	if err := p.ForEach(5, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Workers != 1 {
		t.Errorf("Workers = %d, want 1", s.Workers)
	}
	if s.JobsRun != 5 {
		t.Errorf("JobsRun = %d, want 5", s.JobsRun)
	}
	if s.HelperRecruits != 0 || s.Handoffs != 0 || s.Donations != 0 {
		t.Errorf("serial pool recruited/handed off/donated: %+v", s)
	}
	if s.PeakConcurrent != 1 {
		t.Errorf("PeakConcurrent = %d, want 1", s.PeakConcurrent)
	}
	if s.TokenIdle != 0 {
		t.Errorf("TokenIdle = %v on a pool with no tokens", s.TokenIdle)
	}
}

// TestPoolStatsNestedHandoff re-runs the starvation scenario from
// TestPoolWorkConservingHandoff and checks the telemetry recorded the
// rescue: the inner batch's second job can only run on a helper
// recruited while both nesting levels were in flight, so the hand-off
// counter must be nonzero — and peak concurrency must be exactly the
// two workers the pool allows, never more (the nesting parent's
// goroutine is not double-counted while it runs inner jobs inline).
func TestPoolStatsNestedHandoff(t *testing.T) {
	t.Parallel()
	p := NewPool(2)
	bothRunning := make(chan struct{})
	var running atomic.Int64
	err := p.ForEach(2, func(i int) error {
		if i == 0 {
			return nil
		}
		return p.ForEach(2, func(j int) error {
			if running.Add(1) == 2 {
				close(bothRunning)
			}
			select {
			case <-bothRunning:
				return nil
			case <-time.After(10 * time.Second):
				return fmt.Errorf("inner job %d starved", j)
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.JobsRun != 4 {
		t.Errorf("JobsRun = %d, want 4 (2 outer + 2 inner)", s.JobsRun)
	}
	if s.HelperRecruits < 1 {
		t.Errorf("HelperRecruits = %d, want >= 1", s.HelperRecruits)
	}
	if s.Handoffs < 1 {
		t.Errorf("Handoffs = %d, want >= 1 (the freed slot reached the inner batch)", s.Handoffs)
	}
	if s.PeakConcurrent != 2 {
		t.Errorf("PeakConcurrent = %d, want exactly the worker cap 2", s.PeakConcurrent)
	}
}

// TestPoolStatsSnapshotWhileRunning hammers Stats from a side goroutine
// while a batch executes — the snapshot API must be safe (the -race CI
// job is the real check here) and monotone in JobsRun. The batch gates
// on two jobs running concurrently, so a helper recruitment, a token
// acquisition (hence nonzero token-idle credit), and a peak of at least
// two are all guaranteed, not schedule-dependent.
func TestPoolStatsSnapshotWhileRunning(t *testing.T) {
	t.Parallel()
	p := NewPool(4)
	stop := make(chan struct{})
	var poller sync.WaitGroup
	poller.Add(1)
	go func() {
		defer poller.Done()
		var last uint64
		for {
			s := p.Stats()
			if s.JobsRun < last {
				t.Error("JobsRun went backwards")
				return
			}
			last = s.JobsRun
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	pairRunning := make(chan struct{})
	var running atomic.Int64
	err := p.ForEach(4, func(i int) error {
		if running.Add(1) == 2 {
			close(pairRunning)
		}
		select {
		case <-pairRunning:
			return nil
		case <-time.After(10 * time.Second):
			return fmt.Errorf("job %d never saw a concurrent peer", i)
		}
	})
	close(stop)
	poller.Wait()
	if err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.JobsRun != 4 {
		t.Errorf("JobsRun = %d, want 4", s.JobsRun)
	}
	if s.HelperRecruits < 1 {
		t.Errorf("HelperRecruits = %d, want >= 1", s.HelperRecruits)
	}
	if s.PeakConcurrent < 2 || s.PeakConcurrent > 4 {
		t.Errorf("PeakConcurrent = %d, want within [2, 4]", s.PeakConcurrent)
	}
	if s.TokenIdle <= 0 {
		t.Errorf("TokenIdle = %v, want > 0 after a token was parked then acquired", s.TokenIdle)
	}
}
