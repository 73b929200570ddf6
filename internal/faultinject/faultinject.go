// Package faultinject is a deterministic fault-injection layer for the
// channel stack. It models the full power the threat model (§3, §6.3)
// grants the untrusted in-CVM proxy and the host network: every frame may
// be dropped, duplicated, reordered, corrupted, truncated, or replayed.
//
// Faults are drawn from a seeded PRNG, so a schedule is perfectly
// reproducible: the same Plan (seed + rates) against the same traffic
// produces the same injected faults and the same per-class counters. The
// chaos suite leans on that to assert exact outcomes across reruns.
package faultinject

import (
	"fmt"
	"math/rand"
	"sync"

	"github.com/asterisc-release/erebor-go/internal/secchan"
	"github.com/asterisc-release/erebor-go/internal/trace"
)

// Class enumerates the injectable fault classes.
type Class int

// Fault classes, in injection-priority order. The first six act on the
// wire (per-frame, inside Transport.Send); the last two act at the proxy
// egress edge (per-frame, inside secchan.Proxy via ProxyFault). Wire and
// proxy classes draw from separate PRNG streams so adding the proxy classes
// leaves every existing seed's wire schedule byte-identical.
const (
	Drop Class = iota
	Duplicate
	Reorder
	Corrupt
	Truncate
	Replay
	// FrameRedirect steers an egress frame at a host-controlled destination
	// (egress.RedirectDest) instead of the lane's configured one.
	FrameRedirect
	// PolicyCorrupt corrupts the lane's loaded egress-policy copy; the
	// compiled seal makes later decisions fail closed.
	PolicyCorrupt
	// Latency stalls a frame on the untrusted hop for a fixed number of
	// virtual cycles (the only class that touches the clock — through the
	// injector's Charge hook, so the delay is part of the simulated world,
	// not the tracing layer). Drawn from its own PRNG stream: arming it
	// leaves wire and proxy schedules byte-identical for existing seeds.
	Latency
	NumClasses

	// NumWireClasses bounds the classes drawn from the wire stream; the
	// wire-path chaos suites iterate [0, NumWireClasses) since proxy-edge
	// classes never act inside Transport.Send.
	NumWireClasses = Replay + 1
)

// String names a class.
func (c Class) String() string {
	switch c {
	case Drop:
		return "drop"
	case Duplicate:
		return "duplicate"
	case Reorder:
		return "reorder"
	case Corrupt:
		return "corrupt"
	case Truncate:
		return "truncate"
	case Replay:
		return "replay"
	case FrameRedirect:
		return "frame-redirect"
	case PolicyCorrupt:
		return "policy-corrupt"
	case Latency:
		return "latency"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Plan is a seeded fault schedule: per-frame injection probabilities for
// each class. At most one fault fires per frame (classes are exclusive,
// drawn from one uniform roll), which keeps the per-class accounting exact.
type Plan struct {
	Seed int64
	// Per-frame probabilities in [0,1]; their sum must be <= 1.
	Drop, Duplicate, Reorder, Corrupt, Truncate, Replay float64
	// Proxy-edge probabilities (drawn from a separate stream; their sum
	// must be <= 1 independently of the wire classes above).
	Redirect, PolicyCorrupt float64
	// Latency is the per-frame probability of a fixed LatencyCycles stall
	// on the untrusted hop (its own stream, independent of both above).
	Latency       float64
	LatencyCycles uint64
}

// Validate refuses a plan the injector cannot honor: a rate outside
// [0, 1], or wire or proxy-edge rates that sum above 1. One roll picks a
// frame's class against the running sum of its stream's rates, so the
// classes past a sum of 1 would never fire. Uniform(seed, r) passes for r
// up to 1/6.
func (p Plan) Validate() error {
	rates := [...]struct {
		name string
		v    float64
	}{
		{"drop", p.Drop}, {"duplicate", p.Duplicate}, {"reorder", p.Reorder},
		{"corrupt", p.Corrupt}, {"truncate", p.Truncate}, {"replay", p.Replay},
		{"frame-redirect", p.Redirect}, {"policy-corrupt", p.PolicyCorrupt},
		{"latency", p.Latency},
	}
	for _, r := range rates {
		if !(r.v >= 0 && r.v <= 1) {
			return fmt.Errorf("faultinject: %s rate %v outside [0, 1]", r.name, r.v)
		}
	}
	if sum := p.Drop + p.Duplicate + p.Reorder + p.Corrupt + p.Truncate + p.Replay; sum > 1 {
		return fmt.Errorf("faultinject: wire fault rates sum to %v, above 1 (at most 1/6 per class when all six are armed)", sum)
	}
	if sum := p.Redirect + p.PolicyCorrupt; sum > 1 {
		return fmt.Errorf("faultinject: proxy-edge fault rates sum to %v, above 1", sum)
	}
	return nil
}

// Uniform returns a plan injecting every wire class at the given rate.
// Proxy-edge classes stay off; arm them with WithProxyFaults.
func Uniform(seed int64, rate float64) Plan {
	return Plan{Seed: seed, Drop: rate, Duplicate: rate, Reorder: rate,
		Corrupt: rate, Truncate: rate, Replay: rate}
}

// WithProxyFaults returns a copy of the plan with the proxy-edge classes
// armed at the given rates.
func (p Plan) WithProxyFaults(redirect, policyCorrupt float64) Plan {
	p.Redirect, p.PolicyCorrupt = redirect, policyCorrupt
	return p
}

// DefaultLatencyCycles is the stall applied by the Latency class when a
// plan arms it without choosing a magnitude (~24 µs at 2.1 GHz — enough to
// dominate a phase when it lands, small enough not to trip timeouts).
const DefaultLatencyCycles = 50_000

// WithLatency returns a copy of the plan with the latency class armed:
// each frame sent through a wrapped transport stalls for cycles virtual
// cycles with probability rate (cycles 0 = DefaultLatencyCycles).
func (p Plan) WithLatency(rate float64, cycles uint64) Plan {
	if cycles == 0 {
		cycles = DefaultLatencyCycles
	}
	p.Latency, p.LatencyCycles = rate, cycles
	return p
}

// Only returns a plan injecting a single class at the given rate.
func Only(seed int64, class Class, rate float64) Plan {
	p := Plan{Seed: seed}
	switch class {
	case Drop:
		p.Drop = rate
	case Duplicate:
		p.Duplicate = rate
	case Reorder:
		p.Reorder = rate
	case Corrupt:
		p.Corrupt = rate
	case Truncate:
		p.Truncate = rate
	case Replay:
		p.Replay = rate
	case FrameRedirect:
		p.Redirect = rate
	case PolicyCorrupt:
		p.PolicyCorrupt = rate
	case Latency:
		p.Latency, p.LatencyCycles = rate, DefaultLatencyCycles
	}
	return p
}

// Counters tallies injected faults per class, plus frames passed clean.
type Counters struct {
	Drops, Duplicates, Reorders, Corrupts, Truncates, Replays uint64
	Redirects, PolicyCorrupts                                 uint64
	// Latencies counts injected stalls. A stalled frame is otherwise
	// delivered clean, so latencies are additive to the frame-mutation
	// classes and excluded from Total.
	Latencies uint64
	Passed    uint64
}

// Total is the number of frames that had a frame-mutating fault injected
// (latency stalls deliver the frame clean and are counted separately).
func (c Counters) Total() uint64 {
	return c.Drops + c.Duplicates + c.Reorders + c.Corrupts + c.Truncates +
		c.Replays + c.Redirects + c.PolicyCorrupts
}

// String renders the tally.
func (c Counters) String() string {
	s := fmt.Sprintf("drop=%d dup=%d reorder=%d corrupt=%d trunc=%d replay=%d pass=%d",
		c.Drops, c.Duplicates, c.Reorders, c.Corrupts, c.Truncates, c.Replays, c.Passed)
	if c.Redirects != 0 || c.PolicyCorrupts != 0 {
		s += fmt.Sprintf(" redirect=%d policy-corrupt=%d", c.Redirects, c.PolicyCorrupts)
	}
	if c.Latencies != 0 {
		s += fmt.Sprintf(" latency=%d", c.Latencies)
	}
	return s
}

// capturedCap bounds the replay capture buffer.
const capturedCap = 64

// Injector owns the PRNG schedule and state shared by every transport it
// wraps (a single session's links draw from one deterministic stream).
//
// A mutex guards the PRNG, the replay capture buffer, and the counters so
// one injector may be shared across slots/cores under the race detector.
// Locking changes no draw order: a single-goroutine caller sees exactly the
// schedule pre-SMP seeds produced.
type Injector struct {
	plan Plan

	mu       sync.Mutex
	rng      *rand.Rand
	proxyRng *rand.Rand // separate stream for the proxy-edge classes
	latRng   *rand.Rand // separate stream for the latency class
	captured [][]byte   // retains relayed frames as replay ammunition

	// Counters tallies injected faults. Concurrent readers should use
	// Snapshot; direct field access is only safe once sending has quiesced.
	Counters Counters

	// Rec, when non-nil, records every injected fault as a flight-recorder
	// instant (label = fault class) on the client track. Recording never
	// consumes PRNG draws, so attaching a recorder does not change the
	// fault schedule a seed produces.
	Rec *trace.Recorder

	// Charge, when non-nil, applies Latency-class stalls to the simulated
	// clock (the serving loop binds it to the world's cycle counter). With
	// no hook the latency stream still draws and counts — deterministic
	// schedules don't depend on wiring — but no cycles pass.
	Charge func(cycles uint64)
}

// proxySeedSalt decorrelates the proxy-edge PRNG stream from the wire
// stream while keeping both a pure function of Plan.Seed.
const proxySeedSalt = 0x65677273 // "egrs"

// latencySeedSalt decorrelates the latency stream the same way.
const latencySeedSalt = 0x6c617479 // "laty"

// New builds an injector for a plan. The wire and proxy-edge classes get
// independent PRNG streams derived from the same seed: proxy draws never
// advance the wire stream, so arming the proxy classes leaves existing
// seeds' wire schedules untouched (asserted by the schedule-stability
// tests).
func New(plan Plan) *Injector {
	return &Injector{
		plan:     plan,
		rng:      rand.New(rand.NewSource(plan.Seed)),
		proxyRng: rand.New(rand.NewSource(plan.Seed ^ proxySeedSalt)),
		latRng:   rand.New(rand.NewSource(plan.Seed ^ latencySeedSalt)),
	}
}

// Plan returns the injector's schedule parameters.
func (inj *Injector) Plan() Plan { return inj.plan }

// Wrap interposes the injector on a transport's send side: every frame
// sent through the returned transport is subject to the fault schedule.
// Recv passes through untouched (faults are injected where frames enter
// the untrusted plumbing).
func (inj *Injector) Wrap(inner secchan.Transport) *Transport {
	return &Transport{inner: inner, inj: inj}
}

// Snapshot returns the counters under the injector's lock, safe to call
// while other slots are still sending.
func (inj *Injector) Snapshot() Counters {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.Counters
}

// decideLocked draws the fault class for one frame: one uniform roll against
// the cumulative wire-class probabilities, NumClasses meaning "pass clean".
// Only wire classes are drawn here — proxy-edge classes have their own
// stream (ProxyFault) so they cannot perturb this schedule. Callers hold
// inj.mu.
func (inj *Injector) decideLocked() Class {
	r := inj.rng.Float64()
	cum := 0.0
	probs := [NumWireClasses]float64{
		Drop: inj.plan.Drop, Duplicate: inj.plan.Duplicate, Reorder: inj.plan.Reorder,
		Corrupt: inj.plan.Corrupt, Truncate: inj.plan.Truncate, Replay: inj.plan.Replay,
	}
	for class := Class(0); class < NumWireClasses; class++ {
		cum += probs[class]
		if r < cum {
			return class
		}
	}
	return NumClasses
}

// ProxyFault draws one proxy-edge fault decision from the proxy stream:
// one uniform roll against the cumulative Redirect/PolicyCorrupt rates.
// Safe for use as a secchan.Proxy.FaultFn.
func (inj *Injector) ProxyFault() secchan.EgressFault {
	inj.mu.Lock()
	r := inj.proxyRng.Float64()
	var f secchan.EgressFault
	var class Class
	switch {
	case r < inj.plan.Redirect:
		f, class = secchan.EgressFaultRedirect, FrameRedirect
		inj.Counters.Redirects++
	case r < inj.plan.Redirect+inj.plan.PolicyCorrupt:
		f, class = secchan.EgressFaultPolicyCorrupt, PolicyCorrupt
		inj.Counters.PolicyCorrupts++
	}
	inj.mu.Unlock()
	if f != secchan.EgressFaultNone {
		inj.Rec.Emit(trace.KindFaultInject, trace.TrackServer, class.String())
	}
	return f
}

// BindProxy arms a lane's proxy with the injector's proxy-edge schedule.
func (inj *Injector) BindProxy(p *secchan.Proxy) { p.FaultFn = inj.ProxyFault }

// captureLocked retains a copy of a frame for later replay. Callers hold
// inj.mu.
func (inj *Injector) captureLocked(frame []byte) {
	cp := make([]byte, len(frame))
	copy(cp, frame)
	inj.captured = append(inj.captured, cp)
	if len(inj.captured) > capturedCap {
		inj.captured = inj.captured[1:]
	}
}

// decision is everything one frame's fault needs from the shared PRNG state,
// drawn in a single locked section so concurrent senders cannot interleave
// mid-frame. Draw order matches the pre-SMP single-stream schedule exactly.
type decision struct {
	class                   Class
	corruptByte, corruptBit int
	truncCut                int
	replay                  []byte
}

// roll draws one frame's full fault decision under the injector lock.
func (inj *Injector) roll(frame []byte) decision {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	d := decision{class: inj.decideLocked()}
	switch d.class {
	case Drop:
		inj.Counters.Drops++
	case Duplicate:
		inj.Counters.Duplicates++
		inj.captureLocked(frame)
	case Reorder:
		inj.Counters.Reorders++
		inj.captureLocked(frame)
	case Corrupt:
		inj.Counters.Corrupts++
		if len(frame) > 0 {
			d.corruptByte = inj.rng.Intn(len(frame))
			d.corruptBit = inj.rng.Intn(8)
		}
	case Truncate:
		inj.Counters.Truncates++
		if len(frame) > 1 {
			d.truncCut = inj.rng.Intn(len(frame))
		}
	case Replay:
		inj.Counters.Replays++
		inj.captureLocked(frame)
		if n := len(inj.captured); n > 0 {
			d.replay = append([]byte(nil), inj.captured[inj.rng.Intn(n)]...)
		}
	default:
		inj.Counters.Passed++
		inj.captureLocked(frame)
	}
	return d
}

// Transport applies the injector's schedule to frames sent through it.
type Transport struct {
	inner secchan.Transport
	inj   *Injector

	// held is a frame delayed for reordering: it ships after the next send
	// (or on the next Recv, so a tail frame is not held forever).
	held []byte
}

// maybeDelay draws one latency decision from the latency stream and, on a
// hit, stalls the clock through the Charge hook, recording the stall as a
// fault-inject span (so the critical-path analyzer can name "latency" as a
// contributor inside the affected session's tree).
func (inj *Injector) maybeDelay() {
	if inj.plan.Latency <= 0 || inj.plan.LatencyCycles == 0 {
		return
	}
	inj.mu.Lock()
	hit := inj.latRng.Float64() < inj.plan.Latency
	if hit {
		inj.Counters.Latencies++
	}
	inj.mu.Unlock()
	if !hit || inj.Charge == nil {
		return
	}
	sp := inj.Rec.Begin()
	inj.Charge(inj.plan.LatencyCycles)
	inj.Rec.EndSpan(sp, trace.KindFaultInject, trace.TrackClient, Latency.String())
}

// Send relays frame through the fault schedule. The PRNG draws and state
// updates happen in one locked roll; the inner sends run outside the lock so
// a slow transport cannot serialize unrelated slots.
func (t *Transport) Send(frame []byte) error {
	inj := t.inj
	inj.maybeDelay()
	d := inj.roll(frame)
	if d.class != NumClasses {
		inj.Rec.Emit(trace.KindFaultInject, trace.TrackClient, d.class.String())
	}
	switch d.class {
	case Drop:
		return nil // the frame vanishes; the sender sees success (lossy wire)

	case Duplicate:
		if err := t.inner.Send(frame); err != nil {
			return err
		}
		return t.inner.Send(frame)

	case Reorder:
		if t.held != nil {
			// Already holding one: swap, shipping the older frame now.
			prev := t.held
			t.held = append([]byte(nil), frame...)
			return t.inner.Send(prev)
		}
		t.held = append([]byte(nil), frame...)
		return nil

	case Corrupt:
		cp := append([]byte(nil), frame...)
		if len(cp) > 0 {
			cp[d.corruptByte] ^= 1 << uint(d.corruptBit)
		}
		return t.inner.Send(cp)

	case Truncate:
		return t.inner.Send(frame[:d.truncCut])

	case Replay:
		if err := t.inner.Send(frame); err != nil {
			return err
		}
		if d.replay != nil {
			return t.inner.Send(d.replay)
		}
		return nil

	default:
		if t.held != nil {
			// A clean send flushes the delayed frame behind this one —
			// completing the reorder.
			held := t.held
			t.held = nil
			if err := t.inner.Send(frame); err != nil {
				return err
			}
			return t.inner.Send(held)
		}
		return t.inner.Send(frame)
	}
}

// Recv passes through, first flushing any frame held for reordering so a
// delayed tail frame eventually arrives even with no further sends.
func (t *Transport) Recv() ([]byte, error) {
	if t.held != nil {
		held := t.held
		t.held = nil
		_ = t.inner.Send(held)
	}
	return t.inner.Recv()
}
