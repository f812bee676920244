package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// usage is a snapshot of the process's host cost counters. Every span
// and every timed call is the difference of two snapshots.
type usage struct {
	wall         time.Time
	cpu          time.Duration // user + system, all threads
	allocBytes   uint64
	allocObjects uint64
	gcCycles     uint64
	gcCPU        float64 // seconds, the runtime's estimate
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

// snapshot reads the counters. It is not safe for concurrent use; the
// benchmark takes snapshots from its main goroutine only.
func snapshot() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	metrics.Read(usageSamples)
	return usage{
		wall:         time.Now(),
		cpu:          time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes:   usageSamples[0].Value.Uint64(),
		allocObjects: usageSamples[1].Value.Uint64(),
		gcCycles:     usageSamples[2].Value.Uint64(),
		gcCPU:        usageSamples[3].Value.Float64(),
	}
}

// A memPeak follows the Go runtime's resident memory through a run: all
// the memory the runtime has mapped less what it has handed back to the
// kernel, which is the runtime's own count of its memory backed by
// physical pages. It samples at its start and stop and after every
// garbage collection cycle in between, when the heap is at its largest.
// The kernel's count of resident pages would serve a process per run;
// in a process that makes many runs with GODEBUG=madvdontneed=0 it also
// keeps every page freed by earlier runs that the kernel has not taken
// back yet, so it only ever grows.
type memPeak struct {
	mu      sync.Mutex
	samples []metrics.Sample
	peak    uint64
	stopped bool
}

// gcTick is the object whose finalizer samples a memPeak once per
// garbage collection cycle.
type gcTick struct{ p *memPeak }

func startMemPeak() *memPeak {
	p := &memPeak{samples: []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}}
	p.sample()
	p.arm()
	return p
}

// arm gives the collector a fresh unreachable object. The next cycle
// queues its finalizer, which samples and arms again until the peak is
// stopped.
func (p *memPeak) arm() {
	runtime.SetFinalizer(&gcTick{p}, func(t *gcTick) {
		if t.p.sample() {
			t.p.arm()
		}
	})
}

// sample reads the resident memory into the peak; it reports false once
// the peak is stopped.
func (p *memPeak) sample() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped {
		return false
	}
	metrics.Read(p.samples)
	p.peak = max(p.peak, p.samples[0].Value.Uint64()-p.samples[1].Value.Uint64())
	return true
}

// stop takes the last sample and returns the peak in MB.
func (p *memPeak) stop() float64 {
	p.sample()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stopped = true
	return float64(p.peak) / 1e6
}

// cost is the difference between two snapshots.
type cost struct {
	WallNS       int64   `json:"wall_ns"`
	CPUNS        int64   `json:"cpu_ns"`
	AllocBytes   uint64  `json:"alloc_bytes"`
	AllocObjects uint64  `json:"alloc_objects"`
	GCCycles     uint64  `json:"gc_cycles"`
	GCCPU        float64 `json:"gc_cpu_s"`
}

func since(a usage) cost {
	b := snapshot()
	return cost{
		WallNS:       b.wall.Sub(a.wall).Nanoseconds(),
		CPUNS:        (b.cpu - a.cpu).Nanoseconds(),
		AllocBytes:   b.allocBytes - a.allocBytes,
		AllocObjects: b.allocObjects - a.allocObjects,
		GCCycles:     b.gcCycles - a.gcCycles,
		GCCPU:        b.gcCPU - a.gcCPU,
	}
}

func (c cost) wallS() float64 { return float64(c.WallNS) / 1e9 }
func (c cost) cpuS() float64  { return float64(c.CPUNS) / 1e9 }

// A span is one call into a layer, recorded from the benchmark's side
// of the layer boundary. Start and End are nanoseconds since the
// tracer's epoch; Parent is the enclosing span's ID, 0 at the top.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Cost   cost   `json:"cost"`
	open   usage
}

// tracer keeps a traced run's spans in memory. Spans nest: start opens
// a child of the innermost open span, end closes it. A nil tracer
// records nothing, so untraced runs share the code path at no cost.
// The set that collects the runs' spans numbers the runs.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int // indices into spans of the open spans
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its index for end.
func (t *tracer) start(name string) int {
	if t == nil {
		return -1
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.spans[t.stack[n-1]].ID
	}
	u := snapshot()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: u.wall.Sub(t.epoch).Nanoseconds(), open: u,
	})
	i := len(t.spans) - 1
	t.stack = append(t.stack, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	if n := len(t.stack); n == 0 || t.stack[n-1] != i {
		panic(fmt.Sprintf("tracer: span %q closed out of order", t.spans[i].Name))
	}
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.spans[i]
	s.Cost = since(s.open)
	s.End = s.Start + s.Cost.WallNS
}

// layerTime is one span name's share of a trace.
type layerTime struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	WallS float64 `json:"wall_s"` // inclusive
	SelfS float64 `json:"self_s"` // wall minus the time child spans cover
	CPUS  float64 `json:"cpu_s"`  // inclusive
}

// selfTimes sums each span name's inclusive and self time. A span's
// self time is its duration minus the union of its children's
// intervals; spans of different runs never share a parent.
func selfTimes(spans []span) []layerTime {
	type key struct{ run, id int }
	children := map[key][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			k := key{s.Run, s.Parent}
			children[k] = append(children[k], [2]int64{s.Start, s.End})
		}
	}
	byName := map[string]*layerTime{}
	var names []string
	for _, s := range spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
			names = append(names, s.Name)
		}
		dur := s.End - s.Start
		lt.Count++
		lt.WallS += float64(dur) / 1e9
		lt.SelfS += float64(dur-covered(children[key{s.Run, s.ID}])) / 1e9
		lt.CPUS += s.Cost.cpuS()
	}
	sort.Strings(names)
	out := make([]layerTime, len(names))
	for i, n := range names {
		out[i] = *byName[n]
	}
	return out
}

// covered is the total length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	first := true
	for _, x := range iv {
		switch {
		case first || x[0] >= end:
			total += x[1] - x[0]
			end = x[1]
			first = false
		case x[1] > end:
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// sum adds up the cost of every span with the given name.
func sum(spans []span, name string) cost {
	var c cost
	for _, s := range spans {
		if s.Name == name {
			c.WallNS += s.Cost.WallNS
			c.CPUNS += s.Cost.CPUNS
			c.AllocBytes += s.Cost.AllocBytes
			c.AllocObjects += s.Cost.AllocObjects
			c.GCCycles += s.Cost.GCCycles
			c.GCCPU += s.Cost.GCCPU
		}
	}
	return c
}

// writeTrace writes a benchmark's spans and their per-layer self times
// to dir/<workload>-seed<seed>.json.
func writeTrace(dir, workload string, seed uint64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	data, err := json.MarshalIndent(struct {
		Workload string      `json:"workload"`
		Seed     uint64      `json:"seed"`
		Layers   []layerTime `json:"layers"`
		Spans    []span      `json:"spans"`
	}{workload, seed, selfTimes(spans), spans}, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
