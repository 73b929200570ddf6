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
	"math"
	"math/bits"
	"sync"
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

// CountStore is an external sink for event tallies. When a recorder is
// bound to one (SetCountStore), every event count is written through the
// store instead of the recorder's internal map, and Counts reads back from
// it — making the store the single source of truth. The metrics registry
// implements this interface; the indirection (rather than a direct import)
// exists because metrics depends on trace for its histograms.
type CountStore interface {
	// AddTraceCount adds delta to the tally for (kind, label).
	AddTraceCount(kind, label string, delta uint64)
	// TraceCounts snapshots every tally, keyed like Recorder.Counts
	// ("kind" or "kind|label").
	TraceCounts() map[string]uint64
}

// DropStore is optionally implemented by a CountStore that also wants
// ring-wraparound drops as they happen (the metrics registry exposes them
// as erebor_trace_dropped_events, so silent event loss is visible at
// runtime instead of only via Dropped() after the fact).
type DropStore interface {
	// AddTraceDropped adds delta to the dropped-events counter.
	AddTraceDropped(delta uint64)
}

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

	hists  map[string]*Histogram
	counts map[string]uint64
	store  CountStore
	drops  DropStore // store's drop sink, when it implements one

	// ctx is the ambient span scope; mutated only from the simulation's
	// driving goroutine, like metrics.Attr (see span.go).
	ctx *Ctx
}

// New builds a recorder with a bounded ring of capacity events, stamping
// events with the supplied virtual-clock reader. capacity <= 0 selects
// DefaultCapacity.
func New(capacity int, now func() uint64) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{
		now:    now,
		buf:    make([]Event, 0, capacity),
		hists:  make(map[string]*Histogram),
		counts: make(map[string]uint64),
		ctx:    &Ctx{},
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

// countKey joins kind and label for the counter map ('|' cannot appear in
// either).
func countKey(kind Kind, label string) string {
	if label == "" {
		return kind.String()
	}
	return kind.String() + "|" + label
}

// SetCountStore redirects event tallies to an external store (the metrics
// registry). Wire it before the first event: counts already accumulated in
// the internal map are not migrated.
func (r *Recorder) SetCountStore(s CountStore) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.store = s
	r.drops, _ = s.(DropStore)
	r.mu.Unlock()
}

// append adds ev to the ring, overwriting the oldest event when full.
func (r *Recorder) append(ev Event) {
	if r.store != nil {
		r.store.AddTraceCount(ev.Kind.String(), ev.Label, 1)
	} else {
		r.counts[countKey(ev.Kind, ev.Label)]++
	}
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
	if r.drops != nil {
		r.drops.AddTraceDropped(1)
	}
}

// Emit records an instant event at the current virtual time, parented to
// the ambient span scope (so e.g. a frame delivery during a tenant tick
// lands inside that session's tree without any plumbing at the hook site).
func (r *Recorder) Emit(kind Kind, track int32, label string) {
	if r == nil {
		return
	}
	parent := r.ctx.Current()
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
	parent := r.ctx.Current()
	id := r.ctx.alloc()
	r.mu.Lock()
	r.append(Event{TS: start, Dur: dur, Kind: kind, Track: track, Label: label, Span: id, Parent: parent})
	h := r.hists[key]
	if h == nil {
		h = &Histogram{}
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
// as the maximum fill ever reached; Reset clears it with everything else.
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
func (r *Recorder) Histograms() map[string]Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]Histogram, len(r.hists))
	for k, h := range r.hists {
		out[k] = *h
	}
	return out
}

// Counts copies the event tallies (key = kind or "kind|label"). When a
// CountStore is bound, the tallies come from the store, so a registry-backed
// recorder exports identical bytes to a standalone one.
func (r *Recorder) Counts() map[string]uint64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	store := r.store
	if store == nil {
		out := make(map[string]uint64, len(r.counts))
		for k, v := range r.counts {
			out[k] = v
		}
		r.mu.Unlock()
		return out
	}
	r.mu.Unlock()
	// Read outside r.mu: the store has its own lock, and holding both here
	// would order them opposite to the append path.
	return store.TraceCounts()
}

// Reset discards events, histograms, counters and the dropped count; the
// capacity, clock binding and count store are kept. Tallies held by a bound
// CountStore belong to the store and are not cleared here.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf = r.buf[:0]
	r.start, r.n = 0, 0
	r.seq, r.dropped = 0, 0
	r.hists = make(map[string]*Histogram)
	r.counts = make(map[string]uint64)
	r.ctx = &Ctx{}
}

// --- histogram -----------------------------------------------------------------

// NumBuckets is the fixed log2 bucket count. Bucket i holds durations d
// with bits.Len64(d) == i: bucket 0 is exactly {0}, bucket i (i >= 1) is
// [2^(i-1), 2^i). The last bucket absorbs everything longer (2^38 cycles
// ≈ 130 simulated seconds — far beyond any single span).
const NumBuckets = 40

// Histogram is a fixed-log2-bucket latency histogram in virtual cycles.
//
// Exemplars: each bucket optionally retains the identity (a span/session
// ID) of the most recent observation that landed in it. Last-write-wins is
// the deterministic tail-replacement rule: for a fixed observation order —
// which the virtual clock guarantees — the retained exemplar per bucket is
// fixed, so an exemplar in a p99 bucket links a blown SLO to one concrete
// session's span tree.
type Histogram struct {
	Count   uint64
	Sum     uint64
	Min     uint64
	Max     uint64
	Buckets [NumBuckets]uint64
	Exem    [NumBuckets]uint64
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d uint64) int {
	i := bits.Len64(d)
	if i >= NumBuckets {
		i = NumBuckets - 1
	}
	return i
}

// BucketUpper is the inclusive upper bound of bucket i in cycles
// (math.MaxUint64 for the overflow bucket).
func BucketUpper(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= NumBuckets-1 {
		return math.MaxUint64
	}
	return 1<<uint(i) - 1
}

// Observe adds one duration.
func (h *Histogram) Observe(d uint64) {
	if h.Count == 0 || d < h.Min {
		h.Min = d
	}
	if d > h.Max {
		h.Max = d
	}
	h.Count++
	h.Sum += d
	h.Buckets[bucketOf(d)]++
}

// ObserveEx adds one duration and retains exemplar (a span/session ID; 0
// keeps the bucket's previous exemplar) in the duration's bucket.
func (h *Histogram) ObserveEx(d uint64, exemplar uint64) {
	h.Observe(d)
	if exemplar != 0 {
		h.Exem[bucketOf(d)] = exemplar
	}
}

// ExemplarAt returns the exemplar retained in the bucket where quantile q
// falls (the same bucket walk as Quantile), or 0 when that bucket holds
// none. An empty histogram returns 0.
func (h Histogram) ExemplarAt(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	rank := uint64(1)
	if q >= 1 {
		rank = h.Count
	} else if q > 0 {
		rank = uint64(math.Ceil(q * float64(h.Count)))
		if rank == 0 {
			rank = 1
		}
	}
	var cum uint64
	for i := 0; i < NumBuckets; i++ {
		cum += h.Buckets[i]
		if cum >= rank {
			return h.Exem[i]
		}
	}
	return 0
}

// CountAbove counts observations whose bucket's effective upper bound
// (clamped to the observed Max) exceeds threshold — the bucket-granular
// violation count the SLO engine charges against an error budget. The rule
// matches Quantile: Quantile(q) <= t implies at most (1-q)·Count
// observations are counted above t.
func (h Histogram) CountAbove(threshold uint64) uint64 {
	var out uint64
	for i := 0; i < NumBuckets; i++ {
		if h.Buckets[i] == 0 {
			continue
		}
		up := BucketUpper(i)
		if up > h.Max {
			up = h.Max
		}
		if up > threshold {
			out += h.Buckets[i]
		}
	}
	return out
}

// Mean is the average observed duration in cycles.
func (h Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns an upper bound (in cycles) for the q-quantile: the
// inclusive upper edge of the bucket where that quantile falls, clamped to
// the observed Max. Edge cases are fixed deterministically: an empty
// histogram returns 0 regardless of q, q <= 0 returns Min, and q >= 1
// returns exactly Max (the tightest upper bound for the last observation —
// never the log2 bucket edge above it).
func (h Histogram) Quantile(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min
	}
	if q >= 1 {
		return h.Max
	}
	rank := uint64(math.Ceil(q * float64(h.Count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < NumBuckets; i++ {
		cum += h.Buckets[i]
		if cum >= rank {
			up := BucketUpper(i)
			if up > h.Max {
				up = h.Max
			}
			return up
		}
	}
	return h.Max
}
