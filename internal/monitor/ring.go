package monitor

import (
	"github.com/asterisc-release/erebor-go/internal/costs"
	"github.com/asterisc-release/erebor-go/internal/cpu"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/metrics"
	"github.com/asterisc-release/erebor-go/internal/paging"
	"github.com/asterisc-release/erebor-go/internal/trace"
)

// The async EMC submission ring: instead of paying one gate crossing (and
// one shootdown broadcast) per MMU request, the kernel enqueues independent
// requests into a per-AS ring and the monitor drains them as one MMU
// transaction under a single EMCRingDrain gate.

// MMUOp selects the operation of one MMU-transaction request.
type MMUOp uint8

// The four leaf mutations a user-MMU transaction applies. OpProtect
// rewrites the flags of a mapped page (mprotect); a permission-identical
// rewrite flushes nothing. OpReclaim is the kernel's memory-pressure
// reclaimer unmapping one page, permitted only for unpinned common-region
// pages (§6.1): confined pages are pinned and refuse it.
const (
	OpMap MMUOp = iota
	OpUnmap
	OpProtect
	OpReclaim
)

var mmuOpNames = [...]string{OpMap: "map", OpUnmap: "unmap", OpProtect: "protect", OpReclaim: "reclaim"}

// String names the operation (metrics label values).
func (op MMUOp) String() string {
	if int(op) < len(mmuOpNames) {
		return mmuOpNames[op]
	}
	return "unknown"
}

// RingReq is one entry of the submission ring, and of every MMU
// transaction. Frame is used by OpMap only; Flags by OpMap and OpProtect.
type RingReq struct {
	Op    MMUOp
	VA    paging.Addr
	Frame mem.Frame
	Flags MapFlags
}

// DefaultRingEntries sizes a submission ring: large enough to swallow one
// 64-page mmap/munmap span (the lmbench pagefault working set) with room
// to spare.
const DefaultRingEntries = 128

// SubmitRing is the kernel-filled, monitor-drained request ring of one
// address space. The simulation models it as a slice FIFO: the kernel
// pushes entries (charging the submit cost at the call site) and the
// monitor consumes them atomically at drain time.
type SubmitRing struct {
	asid ASID
	cap  int
	reqs []RingReq
}

// NewSubmitRing builds a ring bound to one address space. capacity <= 0
// selects DefaultRingEntries.
func NewSubmitRing(asid ASID, capacity int) *SubmitRing {
	if capacity <= 0 {
		capacity = DefaultRingEntries
	}
	return &SubmitRing{asid: asid, cap: capacity}
}

// Len returns the number of pending entries.
func (r *SubmitRing) Len() int { return len(r.reqs) }

// Cap returns the ring capacity.
func (r *SubmitRing) Cap() int { return r.cap }

// Push enqueues one request; false means the ring is full (the producer
// must drain first).
func (r *SubmitRing) Push(req RingReq) bool {
	if len(r.reqs) >= r.cap {
		return false
	}
	r.reqs = append(r.reqs, req)
	return true
}

// Reset discards every queued entry.
func (r *SubmitRing) Reset() { r.reqs = r.reqs[:0] }

// EMCRingDrain consumes every queued entry of ring as one MMU transaction
// under one gate crossing. A rejected or rolled-back drain leaves the
// entries in place for the kernel's synchronous fallback. A committed one
// flushes with one ShootdownBatch, empties the ring, and runs a watchdog
// sweep proving no invariant window opened between validate and flush.
func (mon *Monitor) EMCRingDrain(c *cpu.Core, ring *SubmitRing) error {
	return mon.gate(c, metrics.EMCRing, func() error {
		span := mon.Rec.Begin()
		defer func() {
			mon.Rec.EndSpan(span, trace.KindRingDrain, trace.TrackMonitor, "ring-drain")
		}()
		mon.M.Clock.ChargeFrame("monitor/ring/drain", costs.EreborRingDrainBase+
			costs.EreborRingDrainEntry*uint64(ring.Len()))
		ser := mon.series()
		as, ok := mon.addrSpaces[ring.asid]
		if !ok {
			ser.drainRejected.Inc()
			return denied("ring-drain", "unknown address space %d", ring.asid)
		}
		if ring.Len() == 0 {
			ser.drainOK.Inc()
			return nil
		}
		tx := mon.openTxn()
		defer tx.close()
		work, err := mon.mmuValidate(tx, as, ring.reqs, ringOp)
		if err != nil {
			ser.drainRejected.Inc()
			return err
		}
		pairs, err := mon.mmuCommit(c, tx, as, work)
		if err != nil {
			return err
		}

		// One coalesced invalidation broadcast for the whole drained batch:
		// invlpg per pair, at most one IPI per remote core.
		sent := mon.M.ShootdownBatch(c, pairs)
		if remotes := len(mon.M.Cores) - 1; sent > remotes {
			mon.recordViolation("ring drain sent %d shootdown IPIs for one batch (max %d)",
				sent, remotes)
		}
		depth := uint64(ring.Len())
		ring.Reset()

		ser.ringDepth.Observe(depth)
		ser.ringHighWater.SetMax(depth)
		ser.drainOK.Inc()
		var opCount [len(mmuOpNames)]uint64
		for _, r := range work {
			opCount[r.Op]++
		}
		for op, n := range opCount {
			ser.ringOps[op].Add(n)
		}
		ser.ipisSent.Add(uint64(sent))
		if len(pairs) > 0 {
			ser.ipisSkipped.Add(uint64(len(mon.M.Cores)-1) - uint64(sent))
		}
		// Drain-commit sweep: the batch's validate-to-flush window is closed;
		// every invariant must already hold again.
		mon.wdPhaseSweep(TriggerDrain)
		return nil
	})
}

var ringOpNames = [...]string{OpMap: "ring-map", OpUnmap: "ring-unmap", OpProtect: "ring-protect", OpReclaim: "ring-reclaim"}

// ringOp names a drained entry in denials ("ring-map", ...).
func ringOp(op MMUOp) string {
	if int(op) < len(ringOpNames) {
		return ringOpNames[op]
	}
	return "ring-unknown"
}
