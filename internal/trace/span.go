package trace

import "github.com/asterisc-release/erebor-go/internal/metrics"

// Span identity and causality (DESIGN.md §14).
//
// Events carry span IDs and parent IDs so a slow session's cycles can be
// causally decomposed across serve → secchan → monitor → kernel. The span
// scope lives on the world's execution context (metrics.Attr), beside the
// tenant and phase: the serving loop's Switch makes the open phase segment
// the scope, Begin/EndSpan push and pop around nested work, and every hook
// site picks its parent up for free.
//
// The contract mirrors the rest of the recorder:
//
//   - Disabled is free. A nil *Recorder hands out zero SpanRefs and touches
//     no context, so untraced runs allocate nothing and stay trivially
//     cycle-identical.
//   - Tracing never charges the clock. Span begin/end only read it.
//   - Deterministic identity. The context hands out span IDs from a
//     monotonic counter advanced in event order, so the same (seed, P)
//     produces the same IDs byte-for-byte in every export.

// SpanID identifies one recorded span within a run's causal forest. 0 is
// "no span": roots have Parent 0, and events recorded outside any scope
// carry Span/Parent 0.
type SpanID uint64

// SpanRef is an open span handle returned by Begin/NewSpanUnder and closed
// by EndSpan. The zero SpanRef (from a nil recorder) is inert.
type SpanRef struct {
	// ID is the span's identity; 0 marks an inert ref.
	ID SpanID
	// Parent is the scope the span opened under (0 = root).
	Parent SpanID
	// Start is the virtual-cycle timestamp the span opened at.
	Start uint64
	// Mark is the recorder's append sequence at open: if Seq() has advanced
	// past it, events were recorded inside this span's window.
	Mark uint64

	pushed bool
}

// Seq is the total number of events ever appended (survives wraparound).
// Paired with SpanRef.Mark it answers "did anything record inside this
// span's window?" without scanning the ring.
func (r *Recorder) Seq() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Begin opens a span as a child of the current ambient scope and makes it
// the new innermost scope, so events recorded until the matching EndSpan
// parent into it. Nothing is appended to the ring until EndSpan.
func (r *Recorder) Begin() SpanRef {
	if r == nil {
		return SpanRef{}
	}
	ref := SpanRef{Parent: SpanID(r.attr.Span()), Start: r.now(), pushed: true}
	ref.ID = SpanID(r.attr.NewSpan())
	r.mu.Lock()
	ref.Mark = r.seq
	r.mu.Unlock()
	r.attr.PushSpan(uint64(ref.ID))
	return ref
}

// NewSpanUnder opens a span as an explicit child of parent (0 = a new
// root) without touching the ambient scope stack. The serve loop uses it
// for session roots and phase segments, whose extents are driven by the
// slot FSM rather than lexical nesting.
func (r *Recorder) NewSpanUnder(parent SpanID) SpanRef {
	if r == nil {
		return SpanRef{}
	}
	ref := SpanRef{Parent: parent, Start: r.now()}
	ref.ID = SpanID(r.attr.NewSpan())
	r.mu.Lock()
	ref.Mark = r.seq
	r.mu.Unlock()
	return ref
}

// EndSpan closes ref now: pops it from the ambient scope (if Begin pushed
// it), appends the span event with its identity, and feeds the duration
// histogram keyed by label-or-kind. Phase segments (KindPhase) skip the
// histogram: their durations are per-tick slices of a phase, not span
// latencies. Inert refs no-op.
func (r *Recorder) EndSpan(ref SpanRef, kind Kind, track int32, label string) {
	r.EndSpanAt(ref, kind, track, label, 0)
}

// EndSpanAt is EndSpan with an explicit end timestamp (0 = read the clock).
// The serve loop uses it when a segment's end was latched before the call.
func (r *Recorder) EndSpanAt(ref SpanRef, kind Kind, track int32, label string, end uint64) {
	if r == nil {
		return
	}
	if ref.pushed {
		r.attr.PopSpan()
	}
	if ref.ID == 0 {
		return
	}
	if end == 0 {
		end = r.now()
	}
	dur := uint64(0)
	if end > ref.Start {
		dur = end - ref.Start
	}
	r.mu.Lock()
	r.append(Event{
		TS: ref.Start, Dur: dur, Kind: kind, Track: track, Label: label,
		Span: ref.ID, Parent: ref.Parent,
	})
	if kind != KindPhase {
		key := label
		if key == "" {
			key = kind.String()
		}
		h := r.hists[key]
		if h == nil {
			h = &metrics.Histogram{}
			r.hists[key] = h
		}
		h.Observe(dur)
	}
	r.mu.Unlock()
}
