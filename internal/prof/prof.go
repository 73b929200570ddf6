// Package prof is the platform's deterministic cycle-exact profiler: it
// rolls every charged virtual cycle up into a stack naming the mechanism
// that paid it.
//
// The machine's clock is the only way virtual time advances, so the
// profiler attaches there (cpu.Machine.AttachProfiler) as the clock's
// charge sink and observes every cycle exactly once. It keeps no state of
// its own about what is executing: each observation is attributed to the
// world's execution context (metrics.Attr) as it stands at charge time,
//
//	tenant:<t>;phase:<ph>;<frame>;<frame>;...
//
// where (tenant, phase) are the pair the serving loop's Switch bound
// (DESIGN.md §12) and the frames are the mechanism stack the layers that
// charge push on the same context while a profiler is attached: cpu trap
// delivery and shootdown IPIs, the monitor's EMC gates and CoW breaks,
// kernel dispatch, fault handling and the net pump. A leaf charge
// (Clock.ChargeFrame: a TLB hit, a page walk, a PTE write, a gate crossing)
// adds its frame for that one observation. A charge with no frames lands on
// the bare (tenant, phase) root.
//
// Design constraints (DESIGN.md §17):
//
//   - Zero clock charge: recording is pure Go-side bookkeeping; a profiled
//     run is cycle-identical (and report-byte-identical) to a bare run.
//   - Exact conservation: between Start and Stop, the sum of stack cycles
//     for (t, ph) equals the metrics registry's FamilyTenantPhaseCycles
//     delta for the same pair — both read the same context over the same
//     Charge calls.
//   - Deterministic: exports traverse sorted orders, so identically-seeded
//     runs produce byte-identical folded text and pprof protobuf.
//   - Nil-safe: a nil *Profiler no-ops every method, so hook sites need no
//     guards.
package prof

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"

	"github.com/asterisc-release/erebor-go/internal/metrics"
)

// Key identifies one (tenant, phase) attribution bucket — the same pair
// FamilyTenantPhaseCycles is labeled with.
type Key struct {
	Tenant int
	Phase  string
}

// Label renders the bucket as the folded-stack prefix.
func (k Key) Label() string {
	return "tenant:" + strconv.Itoa(k.Tenant) + ";phase:" + k.Phase
}

// Profiler accumulates cycles per (tenant, phase, frame stack). The mutex
// keeps exports race-clean against the single-threaded simulation
// goroutine; the hot path takes it briefly. Observe keys its sample by the
// context's rendered frame stack as is; ObserveFrame appends its leaf.
type Profiler struct {
	mu     sync.Mutex
	attr   *metrics.Attr
	active bool

	samples map[Key]map[string]uint64
	dropped uint64
}

// New builds a profiler reading tenant, phase and frames from the given
// execution context (the world's *metrics.Attr; nil builds a private one).
// Recording starts disabled; call Start at the attribution window's
// opening edge.
func New(attr *metrics.Attr) *Profiler {
	if attr == nil {
		attr = metrics.NewAttr(nil, nil)
	}
	return &Profiler{attr: attr, samples: make(map[Key]map[string]uint64)}
}

// Context is the execution context the profiler reads: the machine pushes
// its frames there while the profiler is attached.
func (p *Profiler) Context() *metrics.Attr { return p.attr }

// Enabled reports whether the profiler is live (hook-site convenience).
func (p *Profiler) Enabled() bool { return p != nil }

// Start opens the recording window. Pair it with the context Switch that
// opens the first attribution window so conservation against metrics holds
// exactly.
func (p *Profiler) Start() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.active = true
	p.mu.Unlock()
}

// Stop closes the recording window.
func (p *Profiler) Stop() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.active = false
	p.mu.Unlock()
}

// Observe attributes n charged cycles to the context's live stack. Cycles
// charged while the context names no phase fall outside the serving
// window's conservation domain and are tallied in Dropped instead (zero in
// a well-formed run: the window opens on PhaseFleet and closes at the
// park).
func (p *Profiler) Observe(n uint64) { p.observe("", n) }

// ObserveFrame attributes n cycles charged by one leaf mechanism: the live
// stack with frame appended, exactly as if frame had been pushed around the
// charge.
func (p *Profiler) ObserveFrame(frame string, n uint64) { p.observe(frame, n) }

func (p *Profiler) observe(leaf string, n uint64) {
	if p == nil || n == 0 {
		return
	}
	p.mu.Lock()
	if !p.active {
		p.mu.Unlock()
		return
	}
	ph := p.attr.Phase
	if ph == "" {
		p.dropped += n
		p.mu.Unlock()
		return
	}
	k := Key{Tenant: p.attr.Tenant, Phase: ph}
	m := p.samples[k]
	if m == nil {
		m = make(map[string]uint64)
		p.samples[k] = m
	}
	stack := p.attr.Frames()
	if leaf != "" {
		stack += ";" + leaf
	}
	m[stack] += n
	p.mu.Unlock()
}

// Dropped returns the cycles observed outside any phase (see Observe).
func (p *Profiler) Dropped() uint64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dropped
}

// Total returns the cycles attributed across every stack.
func (p *Profiler) Total() uint64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var total uint64
	for _, m := range p.samples {
		for _, n := range m {
			total += n
		}
	}
	return total
}

// Totals returns the per-(tenant, phase) cycle totals — the figures that
// must equal the metrics registry's FamilyTenantPhaseCycles deltas over the
// recording window.
func (p *Profiler) Totals() map[Key]uint64 {
	out := make(map[Key]uint64)
	if p == nil {
		return out
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for k, m := range p.samples {
		var total uint64
		for _, n := range m {
			total += n
		}
		out[k] = total
	}
	return out
}

// Sample is one folded stack with its cycle total.
type Sample struct {
	Key    Key
	Stack  string // full folded stack: tenant:<t>;phase:<ph>[;frame...]
	Cycles uint64
}

// Samples returns every stack, sorted by folded-stack string — the
// deterministic export order shared by the folded and pprof writers.
func (p *Profiler) Samples() []Sample {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	out := make([]Sample, 0, len(p.samples))
	for k, m := range p.samples {
		prefix := k.Label()
		for stack, n := range m {
			out = append(out, Sample{Key: k, Stack: prefix + stack, Cycles: n})
		}
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Stack < out[j].Stack })
	return out
}

// Stacks returns the full folded stack→cycles map — the shape Top, Diff
// and the folded parser all speak.
func (p *Profiler) Stacks() map[string]uint64 {
	out := make(map[string]uint64)
	for _, s := range p.Samples() {
		out[s.Stack] = s.Cycles
	}
	return out
}

// WriteFolded writes the profile as folded-stack text (one
// "stack cycles" line per stack, sorted), the format flamegraph.pl and
// speedscope consume directly.
func (p *Profiler) WriteFolded(w io.Writer) error {
	for _, s := range p.Samples() {
		if _, err := fmt.Fprintf(w, "%s %d\n", s.Stack, s.Cycles); err != nil {
			return err
		}
	}
	return nil
}
