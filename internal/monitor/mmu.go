package monitor

import (
	"slices"

	"github.com/asterisc-release/erebor-go/internal/costs"
	"github.com/asterisc-release/erebor-go/internal/cpu"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/paging"
	"github.com/asterisc-release/erebor-go/internal/tdx"
)

// MapFlags selects user-mapping permissions.
type MapFlags struct {
	Writable bool
	Exec     bool
}

// MapReq is one entry of a batched mapping request.
type MapReq struct {
	VA    paging.Addr
	Frame mem.Frame
	Flags MapFlags
}

// EMCCreateAS creates a user address space whose kernel half aliases the
// shared kernel tables (direct map, kernel text, monitor region). The root
// is registered so CR3 writes can be validated.
func (mon *Monitor) EMCCreateAS(c *cpu.Core, owner mem.Owner) (ASID, error) {
	var id ASID
	err := mon.gate(c, "mmu", func() error {
		t, err := paging.New(mon.M.Phys, mon.allocPTP)
		if err != nil {
			return err
		}
		// Share the kernel half: copy PML4 slots 256-511 from the kernel
		// tables so kernel mappings (and future direct-map updates through
		// shared lower-level PTPs) are visible in every address space.
		for i := 256; i < 512; i++ {
			a := mem.Addr(mon.kernelTables.Root.Base()) + mem.Addr(i*8)
			e, err := paging.ReadPTE(mon.M.Phys, a)
			if err != nil {
				return err
			}
			if e.Is(paging.Present) {
				dst := mem.Addr(t.Root.Base()) + mem.Addr(i*8)
				if err := paging.WritePTE(mon.M.Phys, dst, e); err != nil {
					return err
				}
			}
		}
		mon.M.Clock.Charge(costs.EreborPTEWriteBody)
		mon.nextASID++
		id = mon.nextASID
		as := &asState{id: id, owner: owner, tables: t, userFrames: make(map[paging.Addr]mem.Frame)}
		mon.addrSpaces[id] = as
		mon.rootIndex[t.Root] = id
		return nil
	})
	return id, err
}

// EMCDestroyAS tears down a user address space: unmaps user leaves,
// unregisters the root, retires the ended sandboxes it hosted and returns
// its page-table pages to the monitor pool. User frames go back to the
// kernel's bookkeeping (the kernel owns reclamation of non-confined frames).
// Nothing of the address space outlives the call, so a server that destroys
// every retiring worker runs any number of sessions in bounded memory.
func (mon *Monitor) EMCDestroyAS(c *cpu.Core, asid ASID) error {
	return mon.gate(c, "mmu", func() error {
		as, ok := mon.addrSpaces[asid]
		if !ok {
			return denied("destroy-as", "unknown address space %d", asid)
		}
		if sb := mon.sandboxByAS(asid); sb != nil {
			return denied("destroy-as", "address space %d hosts live sandbox %d", asid, sb.id)
		}
		for va := range as.userFrames {
			if err := as.tables.Unmap(va); err != nil {
				return err
			}
			mon.pteWrite()
		}
		// Every translation of this address space is now stale on every
		// core; flush them before the root (or any frame) can be reissued.
		mon.M.ShootdownRoot(c, as.tables.Root)
		delete(mon.rootIndex, as.tables.Root)
		delete(mon.addrSpaces, asid)
		// A core whose CR3 still names the root (the last task it ran lived
		// here) falls back to the kernel tables: the root frame is about to
		// be reissued, and no core may walk it once it is.
		for _, core := range mon.M.Cores {
			if core.CR3Frame() == as.tables.Root {
				core.RawWriteCR(mon.tok, cpu.CR3, uint64(mon.kernelTables.Root.Base()))
			}
		}
		mon.retireSandboxesLocked(asid)
		// The user half of the tables is this address space's own; root
		// slots 256-511 alias the shared kernel tables and stay.
		err := as.tables.Release(256, func(f mem.Frame) {
			if !mon.ptps[f] {
				mon.recordViolation("destroy-as %d: table page %d is not a registered PTP", asid, f)
				return
			}
			mon.freePTP(f)
		})
		if err != nil {
			mon.recordViolation("destroy-as %d: releasing page tables: %v", asid, err)
		}
		// Phase boundary: the root and user frames are reclaimable from here
		// on; no stale mapping census may still reference them.
		mon.wdPhaseSweep(TriggerDestroyAS)
		return nil
	})
}

// EMCSwitchAS writes CR3 to a registered root (context switch).
func (mon *Monitor) EMCSwitchAS(c *cpu.Core, asid ASID) error {
	return mon.gate(c, "cr", func() error {
		mon.M.Clock.Charge(costs.EreborCRWriteBody - costs.NativeCRWrite)
		as, ok := mon.addrSpaces[asid]
		if !ok && asid != 0 {
			return denied("switch-as", "unknown address space %d", asid)
		}
		root := mon.kernelTables.Root
		if asid != 0 {
			root = as.tables.Root
		}
		if t := c.WriteCR(cpu.CR3, uint64(root.Base())); t != nil {
			return t
		}
		return nil
	})
}

// userFramePolicy validates mapping frame f into address space as.
func (mon *Monitor) userFramePolicy(op string, as *asState, f mem.Frame, flags *MapFlags) error {
	meta, err := mon.M.Phys.Meta(f)
	if err != nil {
		return err
	}
	if !meta.Allocated {
		return denied(op, "frame %d not allocated", f)
	}
	if mon.ptps[f] {
		return denied(op, "frame %d is a page-table page", f)
	}
	if mon.monitorFrames[f] || meta.Region == RegionMonitor {
		return denied(op, "frame %d belongs to the monitor", f)
	}
	if mon.kernelText[f] {
		return denied(op, "frame %d holds kernel text", f)
	}
	if owner, confined := mon.confinedOwner[f]; confined {
		sb := mon.sandboxByAS(as.id)
		if sb == nil || sb.id != owner {
			return denied(op, "frame %d is confined to sandbox %d (single-mapping policy)", f, owner)
		}
		return nil
	}
	if tid, shared := mon.templateFrames[f]; shared {
		// CoW template frames are shared read-only across forks; a writable
		// mapping anywhere would let one tenant edit every sibling's image.
		// This denial covers every mapping path — synchronous EMCs, batches
		// and the async submission ring all validate here.
		if flags.Writable {
			return denied(op, "frame %d is a copy-on-write template frame (template %d); writable mapping refused", f, tid)
		}
		sb := mon.sandboxByAS(as.id)
		if sb == nil || sb.template != tid {
			return denied(op, "frame %d belongs to snapshot template %d not forked into this address space", f, tid)
		}
		return nil
	}
	if cr := mon.commonOf(f); cr != nil {
		sb := mon.sandboxByAS(as.id)
		if sb == nil || !sb.commons[cr.name] {
			return denied(op, "frame %d belongs to common region %q not attached to this address space", f, cr.name)
		}
		if cr.sealed && flags.Writable {
			return denied(op, "common region %q is sealed read-only", cr.name)
		}
		return nil
	}
	// Ordinary anonymous frame: must belong to the address space's owner.
	if meta.Owner != as.owner {
		return denied(op, "frame %d owned by %s, address space owned by %s", f, meta.Owner, as.owner)
	}
	return nil
}

func leafFor(f mem.Frame, flags MapFlags) paging.PTE {
	leaf := (paging.Present | paging.User).WithFrame(f)
	if flags.Writable {
		leaf |= paging.Writable
	}
	if !flags.Exec {
		leaf |= paging.NX
	}
	return leaf
}

// EMCMapUser installs one user mapping after policy validation.
func (mon *Monitor) EMCMapUser(c *cpu.Core, asid ASID, va paging.Addr, f mem.Frame, flags MapFlags) error {
	return mon.userMMU(c, asid, OpMap, RingReq{Op: OpMap, VA: va, Frame: f, Flags: flags})
}

// EMCMapUserBatch installs many mappings under a single gate crossing (the
// batched-MMU-update optimization the paper suggests for fork-heavy loads,
// §9.1). It is one MMU transaction: the whole batch validates before any
// PTE is touched, and a commit-phase failure (e.g. page-table-page
// exhaustion) leaves the address space exactly as it was.
func (mon *Monitor) EMCMapUserBatch(c *cpu.Core, asid ASID, reqs []MapReq) error {
	work := make([]RingReq, len(reqs))
	for i, r := range reqs {
		work[i] = RingReq{Op: OpMap, VA: r.VA, Frame: r.Frame, Flags: r.Flags}
	}
	return mon.userMMU(c, asid, OpMap, work...)
}

// EMCUnmapUser removes a user mapping.
func (mon *Monitor) EMCUnmapUser(c *cpu.Core, asid ASID, va paging.Addr) error {
	return mon.userMMU(c, asid, OpUnmap, RingReq{Op: OpUnmap, VA: va})
}

// EMCProtectUser rewrites the flags of an existing user mapping (mprotect).
// Permission-identical rewrites (the common accessed/dirty refresh after a
// fault install) leave cached translations valid and flush nothing.
func (mon *Monitor) EMCProtectUser(c *cpu.Core, asid ASID, va paging.Addr, flags MapFlags) error {
	return mon.userMMU(c, asid, OpProtect, RingReq{Op: OpProtect, VA: va, Flags: flags})
}

// EMCReclaimUser lets the kernel's memory-pressure reclaimer unmap one
// page of a sandbox address space — permitted only for unpinned common
// region pages (§6.1: common pages are not pinned). Confined pages are
// pinned and refuse reclamation.
func (mon *Monitor) EMCReclaimUser(c *cpu.Core, asid ASID, va paging.Addr) error {
	return mon.userMMU(c, asid, OpReclaim, RingReq{Op: OpReclaim, VA: va})
}

// userMMU runs reqs as one MMU transaction under one "mmu" gate crossing
// and flushes its invalidation set. op names the EMC in denials.
func (mon *Monitor) userMMU(c *cpu.Core, asid ASID, op MMUOp, reqs ...RingReq) error {
	return mon.gate(c, "mmu", func() error {
		as, ok := mon.addrSpaces[asid]
		if !ok {
			return denied(userOp(op), "unknown address space %d", asid)
		}
		work, err := mon.mmuValidate(as, reqs, userOp)
		if err != nil {
			return err
		}
		pairs, err := mon.mmuCommit(c, as, work)
		if err != nil {
			return err
		}
		if len(pairs) > 0 {
			mon.M.ShootdownBatch(c, pairs)
		}
		return nil
	})
}

// userOp names a synchronous EMC in denials ("map-user", ...).
func userOp(op MMUOp) string { return op.String() + "-user" }

// --- the MMU transaction -----------------------------------------------------
//
// Every user-mapping EMC is one transaction over []RingReq: mmuValidate
// checks every entry before any PTE changes, and mmuCommit applies them
// with undo records, rolling back on failure or returning the invalidation
// set to flush. PTEWrites and the EreborPTEWriteBody charge cover only
// writes that happened: one per committed entry, one per undo, one per
// pruned PTP. A denied or rolled-back transaction leaves no phantom write.

// mmuValidate checks reqs against a pending view of as — the address space
// overlaid with the transaction's earlier entries, so a protect may target
// a page an earlier map installs — and returns the working copy mmuCommit
// applies, so flag normalization by the policy survives into the commit.
// name labels denials. Nothing is written or charged.
func (mon *Monitor) mmuValidate(as *asState, reqs []RingReq, name func(MMUOp) string) ([]RingReq, error) {
	work := slices.Clone(reqs)
	view := make(map[paging.Addr]mem.Frame) // mem.NoFrame: unmapped
	lookup := func(va paging.Addr) (mem.Frame, bool) {
		f, ok := view[va]
		if !ok {
			f, ok = as.userFrames[va]
		}
		return f, ok && f != mem.NoFrame
	}
	for i := range work {
		r := &work[i]
		op := name(r.Op)
		va := paging.PageBase(r.VA)
		if r.VA >= UserTop || r.VA < UserBase {
			return nil, denied(op, "va %#x outside user range", r.VA)
		}
		f, mapped := lookup(va)
		if !mapped && (r.Op == OpProtect || r.Op == OpReclaim) {
			return nil, denied(op, "va %#x not mapped", r.VA)
		}
		next := mem.NoFrame
		switch r.Op {
		case OpMap:
			if err := mon.userFramePolicy(op, as, r.Frame, &r.Flags); err != nil {
				return nil, err
			}
			next = r.Frame
		case OpUnmap:
		case OpProtect:
			if err := mon.userFramePolicy(op, as, f, &r.Flags); err != nil {
				return nil, err
			}
			r.Frame, next = f, f
		case OpReclaim:
			meta, err := mon.M.Phys.Meta(f)
			if err != nil {
				return nil, err
			}
			if meta.Pinned {
				return nil, denied(op, "frame %d is pinned (confined memory)", f)
			}
			if mon.commonOf(f) == nil {
				return nil, denied(op, "frame %d is not common-region memory", f)
			}
		default:
			return nil, denied(op, "unknown MMU op %d", r.Op)
		}
		view[va] = next
	}
	return work, nil
}

// mmuUndo restores one committed entry on rollback.
type mmuUndo struct {
	va       paging.Addr
	hadLeaf  bool
	prevLeaf paging.PTE
	hadFrame bool
	prevF    mem.Frame
}

// mmuCommit applies entries validated by mmuValidate and returns the
// invalidation set: one (root, VA) pair per leaf whose live translation
// changed, deduplicated, in commit order. First installs add none: no core
// can have cached a translation that never existed. A failure restores the
// installed prefix in reverse, returns the PTPs the transaction allocated
// to the monitor pool and shoots down every VA it rewrote.
func (mon *Monitor) mmuCommit(c *cpu.Core, as *asState, work []RingReq) ([]cpu.ShootdownPair, error) {
	var newPTPs []mem.Frame
	prevHook := as.tables.OnPTPAlloc
	as.tables.OnPTPAlloc = func(f mem.Frame) {
		newPTPs = append(newPTPs, f)
		if prevHook != nil {
			prevHook(f)
		}
	}
	defer func() { as.tables.OnPTPAlloc = prevHook }()

	installed := make([]mmuUndo, 0, len(work))
	rollback := func(failedVA paging.Addr) {
		undone := make([]paging.Addr, 0, len(installed))
		for i := len(installed) - 1; i >= 0; i-- {
			u := installed[i]
			undone = append(undone, u.va)
			var err error
			if u.hadLeaf {
				err = as.tables.Map(u.va, u.prevLeaf)
			} else {
				err = as.tables.Unmap(u.va)
			}
			if err != nil {
				// A rollback that cannot restore a leaf leaves the address
				// space inconsistent with the monitor's bookkeeping — that
				// must never vanish silently.
				mon.recordViolation("MMU rollback: restore of va %#x failed: %v", u.va, err)
			} else {
				mon.pteWrite()
			}
			if u.hadFrame {
				as.userFrames[u.va] = u.prevF
			} else {
				delete(as.userFrames, u.va)
			}
		}
		// With every installed leaf undone (and the failing entry never
		// applied), any table page this transaction allocated on these paths
		// is empty again: release it so a failed transaction consumes no PTP
		// frames. Pre-existing tables are refused and left in place.
		release := func(f mem.Frame) bool {
			if !slices.Contains(newPTPs, f) {
				return false
			}
			mon.freePTP(f)
			mon.pteWrite() // the cleared parent entry
			return true
		}
		_ = as.tables.Prune(failedVA, release)
		for i := len(installed) - 1; i >= 0; i-- {
			_ = as.tables.Prune(installed[i].va, release)
		}
		// Another core may have walked the tables mid-commit and cached the
		// leaves this rollback just rewrote; flush every undone VA before
		// the gate returns.
		if len(undone) > 0 {
			mon.M.Shootdown(c, as.tables.Root, undone...)
		}
	}

	var pairs []cpu.ShootdownPair
	flush := func(va paging.Addr) {
		if p := (cpu.ShootdownPair{Root: as.tables.Root, VA: va}); !slices.Contains(pairs, p) {
			pairs = append(pairs, p)
		}
	}
	for _, r := range work {
		va := paging.PageBase(r.VA)
		u := mmuUndo{va: va}
		if pte, _, fault := as.tables.Walk(va); fault == nil && pte.Is(paging.Present) {
			u.hadLeaf, u.prevLeaf = true, pte
		}
		u.prevF, u.hadFrame = as.userFrames[va]
		var err error
		switch r.Op {
		case OpMap, OpProtect:
			leaf := leafFor(r.Frame, r.Flags)
			if r.Op == OpMap {
				err = as.tables.Map(va, leaf)
			} else {
				err = as.tables.Update(va, func(paging.PTE) paging.PTE { return leaf })
			}
			if err == nil {
				if u.hadLeaf && u.prevLeaf != leaf {
					flush(va)
				}
				as.userFrames[va] = r.Frame
			}
		case OpUnmap, OpReclaim:
			if err = as.tables.Unmap(va); err == nil {
				// A reclaimed frame may be handed out again immediately, so
				// reclaim flushes even if the walk faulted; a plain unmap
				// flushes only a present leaf.
				if u.hadLeaf || r.Op == OpReclaim {
					flush(va)
				}
				delete(as.userFrames, va)
			}
		}
		if err != nil {
			rollback(va)
			return nil, err
		}
		mon.pteWrite()
		installed = append(installed, u)
	}
	return pairs, nil
}

// pteWrite accounts one physical PTE write: it counts the write and charges
// it under monitor/pte-write. Every counted write goes through here, so the
// frame's cycles are PTEWrites times the write's cost.
func (mon *Monitor) pteWrite() {
	mon.Stats.PTEWrites++
	mon.M.Clock.ChargeFrame("monitor/pte-write", costs.EreborPTEWriteBody)
}

// TranslateUser walks an address space (monitor-internal and harness use).
func (mon *Monitor) TranslateUser(asid ASID, va paging.Addr) (mem.Frame, bool) {
	as, ok := mon.addrSpaces[asid]
	if !ok {
		return 0, false
	}
	pte, _, f := as.tables.Walk(va)
	if f != nil || !pte.Is(paging.Present) {
		return 0, false
	}
	return pte.Frame(), true
}

// ASRoot returns the root frame of an address space (0 = kernel tables).
func (mon *Monitor) ASRoot(asid ASID) (mem.Frame, bool) {
	if asid == 0 {
		return mon.kernelTables.Root, true
	}
	as, ok := mon.addrSpaces[asid]
	if !ok {
		return 0, false
	}
	return as.tables.Root, true
}

// --- GHCI control (§5.2, §6.1) -----------------------------------------------

// EMCMapGPA converts a frame between CVM-private and CVM-shared. Policy:
// only frames in the reserved shared-io region may ever become shared, so
// kernel, monitor, PTP, confined and common memory stay private (device
// access prevention).
func (mon *Monitor) EMCMapGPA(c *cpu.Core, f mem.Frame, toShared bool) error {
	return mon.gate(c, "ghci", func() error {
		mon.M.Clock.Charge(costs.EreborGHCIBody - costs.NativeTDReport)
		meta, err := mon.M.Phys.Meta(f)
		if err != nil {
			return err
		}
		if toShared && meta.Region != RegionSharedIO {
			return denied("map-gpa", "frame %d outside the shared-io region may not be shared", f)
		}
		_, t := c.TDCall(tdx.LeafMapGPA, []uint64{uint64(f), boolTo64(toShared)})
		if t != nil {
			return t
		}
		return nil
	})
}

// EMCVMCall performs a synchronous exit to the host for the kernel (proxy
// networking, cpuid, MMIO). The payload, if any, must already live in
// shared frames; the TDX module re-verifies.
func (mon *Monitor) EMCVMCall(c *cpu.Core, sub uint64, args []uint64, payloadFrames []mem.Frame, payload []byte) ([]uint64, error) {
	var ret []uint64
	err := mon.gate(c, "ghci", func() error {
		mon.M.Clock.Charge(costs.EreborGHCIBody - costs.NativeTDReport)
		if len(payload) > 0 {
			if err := mon.TDX.StageSharedBuffer(payloadFrames, payload); err != nil {
				return err
			}
		}
		r, t := c.TDCall(tdx.LeafVMCall, append([]uint64{sub}, args...))
		if t != nil {
			return t
		}
		ret = r
		return nil
	})
	return ret, err
}

func boolTo64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// commonOf returns the common region containing f, if any.
func (mon *Monitor) commonOf(f mem.Frame) *commonRegion {
	for _, cr := range mon.commons {
		if _, ok := cr.frameSet[f]; ok {
			return cr
		}
	}
	return nil
}
