package lms

import (
	"elearncloud/internal/cloud"
	"elearncloud/internal/sim"
)

// AppServer is one LMS application server running on a VM, modeled as an
// egalitarian processor-sharing queue: all admitted jobs progress
// simultaneously, each receiving speed/n of the VM's capacity. Processor
// sharing is the standard model for threaded web application servers and
// produces the right overload behavior for exam-spike experiments.
//
// The implementation uses the virtual-time formulation: a per-job
// progress accumulator advances at speed/n; a job with service demand s
// admitted at accumulator value P completes when the accumulator reaches
// P+s. Completions therefore pop from a min-heap in threshold order,
// making every operation O(log n) even with hundreds of concurrent jobs.
//
// The steady state allocates nothing: jobs live by value in the heap's
// backing array, and the completion callback is bound once per server.
type AppServer struct {
	eng *sim.Engine
	vm  *cloud.VM

	maxJobs int // admission limit; further arrivals are rejected
	jobs    jobHeap
	nextJob int

	progress   float64 // per-job work delivered since server start
	lastUpdate sim.Time
	lastSpeed  float64
	completion *sim.Event
	onComplete func() // s.complete, bound once

	retired bool
	onIdle  func()

	// cluster is the balancer the server was added to, whose served
	// count each completion also increments (nil when standalone).
	cluster  *Cluster
	served   uint64
	rejected uint64
}

type psJob struct {
	threshold float64 // progress value at which the job completes
	id        int
	done      func(killed bool)
}

// before is the heap order: (threshold, id) ascending. ids are unique
// per server, so the order is strict and the pop sequence does not
// depend on the heap's internal layout.
func (a *psJob) before(b *psJob) bool {
	if a.threshold != b.threshold {
		return a.threshold < b.threshold
	}
	return a.id < b.id
}

// jobHeap is a binary min-heap of jobs held by value.
type jobHeap []psJob

func (h *jobHeap) push(j psJob) {
	*h = append(*h, j)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q[i].before(&q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *jobHeap) pop() psJob {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0] = q[n]
	q[n] = psJob{} // release the callback
	q = q[:n]
	for i := 0; ; {
		least, l, r := i, 2*i+1, 2*i+2
		if l < n && q[l].before(&q[least]) {
			least = l
		}
		if r < n && q[r].before(&q[least]) {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	*h = q
	return top
}

// NewAppServer attaches a server to a VM. maxJobs bounds concurrent
// admitted requests (the server's thread pool); non-positive means 256.
func NewAppServer(eng *sim.Engine, vm *cloud.VM, maxJobs int) *AppServer {
	if eng == nil || vm == nil {
		panic("lms: NewAppServer with nil engine or vm")
	}
	if maxJobs <= 0 {
		maxJobs = 256
	}
	s := &AppServer{
		eng:        eng,
		vm:         vm,
		maxJobs:    maxJobs,
		lastUpdate: eng.Now(),
		lastSpeed:  vm.SpeedFactor(),
	}
	s.onComplete = s.complete
	return s
}

// VM returns the server's virtual machine.
func (s *AppServer) VM() *cloud.VM { return s.vm }

// Active returns the number of in-flight jobs.
func (s *AppServer) Active() int { return len(s.jobs) }

// Served returns the number of completed jobs.
func (s *AppServer) Served() uint64 { return s.served }

// Rejected returns the number of admission-rejected jobs.
func (s *AppServer) Rejected() uint64 { return s.rejected }

// Accepting reports whether a new job would be admitted right now.
func (s *AppServer) Accepting() bool {
	return !s.retired && s.vm.State() == cloud.VMRunning && len(s.jobs) < s.maxJobs
}

// Submit admits a job with the given CPU service demand (seconds at
// nominal speed) and returns true, or returns false if the server is
// retired, its VM is not running, or the admission limit is reached.
// done (optional) fires once: with killed=false when the job completes,
// or with killed=true when Kill aborts it.
func (s *AppServer) Submit(service float64, done func(killed bool)) bool {
	if !s.Accepting() {
		s.rejected++
		return false
	}
	if service <= 0 {
		service = 1e-6
	}
	s.advance()
	s.jobs.push(psJob{threshold: s.progress + service, id: s.nextJob, done: done})
	s.nextJob++
	s.reschedule()
	return true
}

// Retire stops the server from accepting new jobs. onIdle (optional)
// fires once the last in-flight job completes — immediately if the server
// is already idle. The autoscaler uses this for graceful scale-down.
func (s *AppServer) Retire(onIdle func()) {
	s.retired = true
	s.onIdle = onIdle
	if len(s.jobs) == 0 && s.onIdle != nil {
		cb := s.onIdle
		s.onIdle = nil
		cb()
	}
}

// advance applies elapsed processor-sharing progress using the speed
// captured at the last update.
func (s *AppServer) advance() {
	now := s.eng.Now()
	if now > s.lastUpdate && len(s.jobs) > 0 {
		elapsed := sim.ToSeconds(now - s.lastUpdate)
		s.progress += elapsed * s.lastSpeed / float64(len(s.jobs))
	}
	s.lastUpdate = now
	s.lastSpeed = s.vm.SpeedFactor()
}

// reschedule cancels any pending completion event and schedules the next
// one for the head of the threshold heap.
func (s *AppServer) reschedule() {
	if s.completion != nil {
		s.eng.Cancel(s.completion)
		s.completion = nil
	}
	if len(s.jobs) == 0 {
		if s.retired && s.onIdle != nil {
			cb := s.onIdle
			s.onIdle = nil
			cb()
		}
		return
	}
	speed := s.lastSpeed
	if speed <= 0 {
		speed = 0.05
	}
	remaining := s.jobs[0].threshold - s.progress
	if remaining < 0 {
		remaining = 0
	}
	wait := sim.Seconds(remaining * float64(len(s.jobs)) / speed)
	s.completion = s.eng.Schedule(wait, "lms/complete", s.onComplete)
}

// complete fires the head job's completion: the server's and its
// cluster's served counts first, then the job's callback.
func (s *AppServer) complete() {
	s.completion = nil
	s.advance()
	j := s.jobs.pop()
	s.served++
	if s.cluster != nil {
		s.cluster.served++
	}
	if j.done != nil {
		j.done(false)
	}
	s.reschedule()
}

// Kill aborts all in-flight jobs, telling each job's callback it was
// killed, and returns how many were aborted. Used when a VM dies under
// the server (host failure) — clients see these as errors. The server
// is retired first, so no callback can resubmit to it.
func (s *AppServer) Kill() int {
	if s.completion != nil {
		s.eng.Cancel(s.completion)
		s.completion = nil
	}
	jobs := s.jobs
	s.jobs = nil
	s.retired = true
	for _, j := range jobs {
		if j.done != nil {
			j.done(true)
		}
	}
	if s.onIdle != nil {
		cb := s.onIdle
		s.onIdle = nil
		cb()
	}
	return len(jobs)
}
