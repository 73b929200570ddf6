// Package trace is the simulation's flight recorder: a lock-cheap, bounded
// ring buffer of typed events stamped on the virtual clock, with per-span
// latency histograms (fixed log2 buckets in cycles) accumulated as spans
// complete.
//
// Design constraints (DESIGN.md §9):
//
//   - Disabled must be free. Every hook site in the monitor/kernel/channel
//     stack guards on a nil *Recorder, so the default configuration pays a
//     single pointer compare per would-be event. All Recorder methods are
//     additionally nil-safe, so optional plumbing never needs its own guard.
//   - Tracing must not perturb the virtual clock. The recorder reads the
//     clock (through the `now` closure it was built with) but never charges
//     it: a traced run and an untraced run of the same workload observe
//     identical cycle counts, which is what lets histogram totals reconcile
//     exactly against Platform.Stats counters.
//   - Bounded memory. The ring buffer overwrites the *oldest* events on
//     wraparound and counts exactly how many were discarded (Dropped), so a
//     long session keeps the newest window of activity — the flight-recorder
//     contract. Histograms and counters are aggregates and never drop.
//   - Deterministic exports. Snapshot order is buffer order; exporter output
//     sorts every map traversal, so the same seed + workload produces
//     byte-identical exports (asserted by the chaos determinism tests).
package trace

import (
	"sync"

	"github.com/asterisc-release/erebor-go/internal/metrics"
)

// Kind is the event taxonomy. Keep the names stable: they appear in both
// exporters and in golden files.
type Kind uint8

// Event kinds recorded across the stack.
const (
	// KindEMC is an EREBOR-MONITOR-CALL gate span (label "emc/<kind>").
	KindEMC Kind = iota
	// KindSandboxExit is the monitor's handling of one sandbox exit (span).
	KindSandboxExit
	// KindSandboxKill is a C8 kill with its reason (instant).
	KindSandboxKill
	// KindInterpose is the monitor's #INT gate around a vector (instant).
	KindInterpose
	// KindSyscall is one kernel syscall dispatch (span, label "syscall/<n>").
	KindSyscall
	// KindPageFault is one kernel page-fault service (span).
	KindPageFault
	// KindTimerTick is a scheduler timer interrupt (instant).
	KindTimerTick
	// KindNetTx / KindNetRx are host-NIC GHCI crossings (instant).
	KindNetTx
	KindNetRx
	// KindFrameSend / KindFrameRecv are reliable-layer record transmissions
	// and in-order deliveries (instant).
	KindFrameSend
	KindFrameRecv
	// KindFrameRetransmit is a history re-send (instant).
	KindFrameRetransmit
	// KindFrameDrop is a frame absorbed by the reliable layer (label
	// "duplicate" | "corrupt" | "reorder").
	KindFrameDrop
	// KindFaultInject is an injected fault (label = fault class).
	KindFaultInject
	// KindQuote is an attestation quote issuance (instant).
	KindQuote
	// KindViolation is a recorded runtime violation (instant).
	KindViolation
	// KindServeSession is one complete tenant session through the serving
	// path (span, label "serve/tenant/<n>").
	KindServeSession
	// KindDispatch is one scheduler slice of a task on a core (span on the
	// core's track, label = task name). Appended after PR 3's kinds.
	KindDispatch
	// KindEgress is one egress policy decision at the proxy edge (instant,
	// label "<verdict>/<rule>"). Appended after PR 5's kinds.
	KindEgress
	// KindPhase is one contiguous slice of a session spent in a serve phase
	// (span, label = phase name, parented under the session root). Appended
	// after PR 6's kinds. Phase segments carry causal structure only: they
	// do not feed the span-latency histograms.
	KindPhase
	// KindRingDrain is the monitor draining the async EMC submission ring
	// (span, nested under its EMC gate span so critical-path analysis
	// attributes it to the session). Appended after PR 7's kinds.
	KindRingDrain
	// KindSandboxSnapshot is a sandbox frozen into a fork template (instant,
	// label "snapshot <sb>->template <t>"). Appended after PR 8's kinds.
	KindSandboxSnapshot
	// KindSandboxFork is a copy-on-write instantiation from a template
	// (instant, label "fork template <t>-><sb>").
	KindSandboxFork
	// KindCowBreak is a first-write page copy on a forked sandbox (instant,
	// label "cow-break va=<va>").
	KindCowBreak
	numKinds
)

var kindNames = [numKinds]string{
	KindEMC:             "emc",
	KindSandboxExit:     "sandbox-exit",
	KindSandboxKill:     "sandbox-kill",
	KindInterpose:       "interpose",
	KindSyscall:         "syscall",
	KindPageFault:       "page-fault",
	KindTimerTick:       "timer-tick",
	KindNetTx:           "net-tx",
	KindNetRx:           "net-rx",
	KindFrameSend:       "frame-send",
	KindFrameRecv:       "frame-recv",
	KindFrameRetransmit: "frame-retransmit",
	KindFrameDrop:       "frame-drop",
	KindFaultInject:     "fault-inject",
	KindQuote:           "quote",
	KindViolation:       "violation",
	KindServeSession:    "serve-session",
	KindDispatch:        "dispatch",
	KindEgress:          "egress",
	KindPhase:           "phase",
	KindRingDrain:       "ring-drain",
	KindSandboxSnapshot: "sandbox-snapshot",
	KindSandboxFork:     "sandbox-fork",
	KindCowBreak:        "cow-break",
}

// String names the kind (stable; used by both exporters).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Export track identifiers: each becomes one named thread ("track") in the
// Chrome trace. Sandboxes get their own tracks via SandboxTrack.
const (
	TrackMonitor int32 = 1
	TrackKernel  int32 = 2
	TrackClient  int32 = 3
	// TrackServer carries the serving path's per-session spans (admission,
	// completion); each tenant's sandbox activity additionally lands on its
	// own SandboxTrack, since every session runs in a freshly launched
	// sandbox with an ID of its own.
	TrackServer int32 = 4
)

// trackCoreBase offsets vCPU IDs into their own track range (per-core
// dispatch tracks sit between the fixed tracks and the sandbox range).
const trackCoreBase int32 = 16

// CoreTrack maps a vCPU ID onto its export track.
func CoreTrack(id int) int32 { return trackCoreBase + int32(id) }

// sandboxTrackBase offsets sandbox IDs into their own track range.
const sandboxTrackBase int32 = 100

// SandboxTrack maps a sandbox ID onto its export track.
func SandboxTrack(id int) int32 { return sandboxTrackBase + int32(id) }

// Event is one recorded occurrence. TS is the virtual-cycle timestamp of
// the event's start; Dur is its length in cycles (0 for instants).
//
// Span and Parent are the causal identity added in PR 7: Span is nonzero
// for events recorded through the span API (Begin/EndSpan), Parent links
// the event into the enclosing scope's tree (0 = root or unscoped). Both
// are zero on events recorded before spans existed, so old call sites and
// golden fixtures stay valid.
type Event struct {
	TS     uint64
	Dur    uint64
	Kind   Kind
	Track  int32
	Label  string
	Span   SpanID
	Parent SpanID
}

// DefaultCapacity is the ring-buffer size used when a configuration does
// not specify one (~64k events; a full chaos session fits comfortably).
const DefaultCapacity = 65536

// Recorder is the flight recorder. The zero of *Recorder (nil) is a valid,
// permanently disabled recorder: every method is nil-safe.
type Recorder struct {
	mu      sync.Mutex
	now     func() uint64
	buf     []Event
	start   int    // index of the oldest event
	n       int    // live events in buf
	seq     uint64 // total events ever appended (monotonic)
	dropped uint64

	hists map[string]*metrics.Histogram

	// met holds the event tallies (metrics.TraceEventsFamily) and ring drops
	// (metrics.TraceDroppedFamily); attr is the execution context that holds
	// the span scope and hands out span IDs (see span.go). Both are the
	// world's, shared with every other layer.
	met  *metrics.Registry
	attr *metrics.Attr
}

// New builds a recorder with a bounded ring of capacity events, stamping
// events with the supplied virtual-clock reader, tallying into met and
// scoping spans on attr. capacity <= 0 selects DefaultCapacity; a nil met
// or attr gets a private one (standalone recorders).
func New(capacity int, now func() uint64, met *metrics.Registry, attr *metrics.Attr) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if met == nil {
		met = metrics.New()
	}
	if attr == nil {
		attr = metrics.NewAttr(met, now)
	}
	return &Recorder{
		now:   now,
		buf:   make([]Event, 0, capacity),
		hists: make(map[string]*metrics.Histogram),
		met:   met,
		attr:  attr,
	}
}

// Enabled reports whether the recorder is live (hook-site convenience).
func (r *Recorder) Enabled() bool { return r != nil }

// Now reads the recorder's virtual clock (0 on a nil recorder).
func (r *Recorder) Now() uint64 {
	if r == nil {
		return 0
	}
	return r.now()
}

// append adds ev to the ring, overwriting the oldest event when full.
func (r *Recorder) append(ev Event) {
	r.met.Inc(metrics.TraceEventsFamily, metrics.KV("kind", ev.Kind.String()), metrics.KV("label", ev.Label))
	r.seq++
	if r.n < cap(r.buf) {
		r.buf = append(r.buf, ev)
		r.n++
		return
	}
	// Wraparound: the slot holding the oldest event is recycled.
	r.buf[r.start] = ev
	r.start = (r.start + 1) % cap(r.buf)
	r.dropped++
	r.met.Inc(metrics.TraceDroppedFamily)
}

// Emit records an instant event at the current virtual time, parented to
// the ambient span scope (so e.g. a frame delivery during a tenant tick
// lands inside that session's tree without any plumbing at the hook site).
func (r *Recorder) Emit(kind Kind, track int32, label string) {
	if r == nil {
		return
	}
	parent := SpanID(r.attr.Span())
	r.mu.Lock()
	r.append(Event{TS: r.now(), Kind: kind, Track: track, Label: label, Parent: parent})
	r.mu.Unlock()
}

// Span records an event that began at start (virtual cycles) and ends now,
// and feeds the duration into the histogram keyed by label (or the kind
// name when label is empty). Durations are exact virtual-clock deltas, so
// histogram sums reconcile against the cost-model counters.
//
// The span is recorded as a leaf child of the ambient scope: it gets its
// own identity, but because it is only appended at completion, nothing can
// nest under it. Call sites whose body records nested events use
// Begin/EndSpan instead (see span.go).
func (r *Recorder) Span(kind Kind, track int32, label string, start uint64) {
	if r == nil {
		return
	}
	end := r.now()
	dur := uint64(0)
	if end > start {
		dur = end - start
	}
	key := label
	if key == "" {
		key = kind.String()
	}
	parent := SpanID(r.attr.Span())
	id := SpanID(r.attr.NewSpan())
	r.mu.Lock()
	r.append(Event{TS: start, Dur: dur, Kind: kind, Track: track, Label: label, Span: id, Parent: parent})
	h := r.hists[key]
	if h == nil {
		h = &metrics.Histogram{}
		r.hists[key] = h
	}
	h.Observe(dur)
	r.mu.Unlock()
}

// Len reports the number of events currently retained.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// HighWater reports the ring's fill high watermark. Retention only grows
// (wraparound recycles slots in place), so the retained-event count doubles
// as the maximum fill ever reached.
func (r *Recorder) HighWater() int { return r.Len() }

// Dropped reports exactly how many events the ring discarded to wraparound.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Snapshot copies the retained events oldest-first.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(r.start+i)%cap(r.buf)])
	}
	return out
}

// Histograms copies the per-span latency histograms (key = span label,
// e.g. "emc/mmu", "sandbox/1/exit", "syscall/16").
func (r *Recorder) Histograms() map[string]metrics.Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]metrics.Histogram, len(r.hists))
	for k, h := range r.hists {
		out[k] = *h
	}
	return out
}

// Counts copies the event tallies out of the registry family that holds
// them, keyed by kind or "kind|label".
func (r *Recorder) Counts() map[string]uint64 {
	if r == nil {
		return nil
	}
	series := r.met.Series(metrics.TraceEventsFamily)
	out := make(map[string]uint64, len(series))
	for _, s := range series {
		var kind, label string
		for _, l := range s.Labels {
			switch l.Key {
			case "kind":
				kind = l.Value
			case "label":
				label = l.Value
			}
		}
		key := kind
		if label != "" {
			key += "|" + label
		}
		out[key] = s.Value
	}
	return out
}
