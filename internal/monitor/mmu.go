package monitor

import (
	"slices"

	"github.com/asterisc-release/erebor-go/internal/costs"
	"github.com/asterisc-release/erebor-go/internal/cpu"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/metrics"
	"github.com/asterisc-release/erebor-go/internal/paging"
	"github.com/asterisc-release/erebor-go/internal/tdx"
)

// MapFlags selects user-mapping permissions.
type MapFlags struct {
	Writable bool
	Exec     bool
}

// EMCCreateAS creates a user address space whose kernel half aliases the
// shared kernel tables (direct map, kernel text, monitor region). The root
// is registered so CR3 writes can be validated.
func (mon *Monitor) EMCCreateAS(c *cpu.Core, owner mem.Owner) (ASID, error) {
	var id ASID
	err := mon.gate(c, metrics.EMCMMU, func() error {
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
	return mon.gate(c, metrics.EMCMMU, func() error {
		as, ok := mon.addrSpaces[asid]
		if !ok {
			return denied("destroy-as", "unknown address space %d", asid)
		}
		if sb := mon.sandboxByAS(asid); sb != nil {
			return denied("destroy-as", "address space %d hosts live sandbox %d", asid, sb.id)
		}
		// Clear every user leaf in VA order, so failures report in a fixed
		// order. A failed clear stops neither the others nor the flush.
		var clearErr error
		for _, va := range sortedVAs(as.userFrames) {
			if _, err := mon.setLeaf(as, va, 0); err != nil {
				mon.recordViolation("destroy-as %d: clearing va %#x: %v", asid, va, err)
				if clearErr == nil {
					clearErr = err
				}
			}
		}
		// Every translation of this address space is now stale on every
		// core; flush them before the root (or any frame) can be reissued.
		mon.M.ShootdownRoot(c, as.tables.Root)
		if clearErr != nil {
			return clearErr
		}
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
			if mon.roles[f].kind != rolePTP {
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
	return mon.gate(c, metrics.EMCCR, func() error {
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

// userFramePolicy validates mapping frame f at page va of address space as.
// The frame's one entry in the frame index decides which rule applies.
func (mon *Monitor) userFramePolicy(op string, as *asState, va paging.Addr, f mem.Frame, flags *MapFlags) error {
	meta, err := mon.M.Phys.Meta(f)
	if err != nil {
		return err
	}
	if !meta.Allocated {
		return denied(op, "frame %d not allocated", f)
	}
	r := mon.roles[f]
	if r.kind == rolePTP {
		return denied(op, "frame %d is a page-table page", f)
	}
	if r.kind == roleMonitor || meta.Region == RegionMonitor {
		return denied(op, "frame %d belongs to the monitor", f)
	}
	switch r.kind {
	case roleKernelText:
		return denied(op, "frame %d holds kernel text", f)
	case roleConfined:
		sb := mon.sandboxByAS(as.id)
		if sb == nil || sb.id != r.sb {
			return denied(op, "frame %d is confined to sandbox %d (single-mapping policy)", f, r.sb)
		}
		// A second leaf of the frame would outlive the session: its end
		// clears only the declared VA before the frame is freed.
		if p, ok := sb.pages[va]; !ok || p.frame != f {
			return denied(op, "frame %d is confined and not declared at %#x (single-mapping policy)", f, va)
		}
	case roleTemplate:
		// CoW template frames are shared read-only across forks; a writable
		// mapping anywhere would let one tenant edit every sibling's image.
		// This denial covers every mapping path — EMCUserMMU, one request
		// or a batch, and the async submission ring all validate here.
		if flags.Writable {
			return denied(op, "frame %d is a copy-on-write template frame (template %d); writable mapping refused", f, r.tmpl)
		}
		sb := mon.sandboxByAS(as.id)
		if sb == nil || sb.template != r.tmpl {
			return denied(op, "frame %d belongs to snapshot template %d not forked into this address space", f, r.tmpl)
		}
	case roleCommon:
		sb := mon.sandboxByAS(as.id)
		if sb == nil || !sb.commons[r.cr.name] {
			return denied(op, "frame %d belongs to common region %q not attached to this address space", f, r.cr.name)
		}
		if r.cr.sealed && flags.Writable {
			return denied(op, "common region %q is sealed read-only", r.cr.name)
		}
	default:
		// Ordinary anonymous frame: must belong to the address space's owner.
		if meta.Owner != as.owner {
			return denied(op, "frame %d owned by %s, address space owned by %s", f, meta.Owner, as.owner)
		}
	}
	return nil
}

// EMCUserMMU is the synchronous way into the user-MMU transaction: it runs
// reqs as one transaction under one "mmu" gate crossing. The whole list
// validates before any PTE is touched, and a commit-phase failure (e.g.
// page-table-page exhaustion) leaves the address space exactly as it was.
// A committed transaction flushes its invalidation set once, so a batch of
// maps (the batched-MMU-update optimization the paper suggests for
// fork-heavy loads, §9.1) pays one crossing and one shootdown. Denials name
// the operation as "<op>-user"; an unknown address space is named after the
// first request's op (map for an empty list).
func (mon *Monitor) EMCUserMMU(c *cpu.Core, asid ASID, reqs ...RingReq) error {
	return mon.gate(c, metrics.EMCMMU, func() error {
		as, ok := mon.addrSpaces[asid]
		if !ok {
			op := OpMap
			if len(reqs) > 0 {
				op = reqs[0].Op
			}
			return denied(userOp(op), "unknown address space %d", asid)
		}
		tx := mon.openTxn()
		defer tx.close()
		work, err := mon.mmuValidate(tx, as, reqs, userOp)
		if err != nil {
			return err
		}
		pairs, err := mon.mmuCommit(c, tx, as, work)
		if err != nil {
			return err
		}
		if len(pairs) > 0 {
			mon.M.ShootdownBatch(c, pairs)
		}
		return nil
	})
}

var userOpNames = [...]string{OpMap: "map-user", OpUnmap: "unmap-user", OpProtect: "protect-user", OpReclaim: "reclaim-user"}

// userOp names a synchronous request in denials ("map-user", ...).
func userOp(op MMUOp) string {
	if int(op) < len(userOpNames) {
		return userOpNames[op]
	}
	return "unknown-user"
}

// --- the MMU transaction -----------------------------------------------------
//
// Both user-MMU EMCs, EMCUserMMU and EMCRingDrain, run one transaction over
// []RingReq: mmuValidate checks every entry before any PTE changes, and
// mmuCommit applies them through setLeaf with undo records, rolling back on
// failure or returning the invalidation set to flush. PTEWrites and the
// EreborPTEWriteBody charge cover only writes that happened: one per entry
// or undo that stored a leaf, one per pruned PTP. A denied or rolled-back
// transaction leaves no phantom write.

// mmuTxn is the per-monitor scratch an MMU transaction runs in: the work
// copy, the pending view, the undo log, the new-PTP list, the invalidation
// set and the OnPTPAlloc hook that fills the list. One transaction is open
// at a time and each starts from empty scratch; the slices keep their
// capacity, so a warm transaction allocates nothing.
type mmuTxn struct {
	open    bool
	work    []RingReq
	view    map[paging.Addr]mem.Frame // mem.NoFrame: unmapped
	undo    []mmuUndo
	newPTPs []mem.Frame
	pairs   []cpu.ShootdownPair
	// onPTP is recordPTP, bound once; prevHook is the OnPTPAlloc it
	// displaces while a commit runs.
	onPTP    func(mem.Frame)
	prevHook func(mem.Frame)
}

// openTxn opens the monitor's MMU transaction. A transaction opened while
// another is open would share its scratch, so it fails loudly.
func (mon *Monitor) openTxn() *mmuTxn {
	tx := &mon.txn
	if tx.open {
		panic("monitor: MMU transaction opened inside another")
	}
	if tx.view == nil {
		tx.view = make(map[paging.Addr]mem.Frame)
		tx.onPTP = tx.recordPTP
	}
	tx.open = true
	return tx
}

// close empties the scratch for the next transaction. The pending view is
// cleared key by key: clearing the map would cost its capacity, which one
// large unmap keeps high for good.
func (tx *mmuTxn) close() {
	for _, r := range tx.work {
		delete(tx.view, paging.PageBase(r.VA))
	}
	tx.work, tx.undo = tx.work[:0], tx.undo[:0]
	tx.newPTPs, tx.pairs = tx.newPTPs[:0], tx.pairs[:0]
	tx.open = false
}

// recordPTP is the tables' OnPTPAlloc while a commit runs: it lists each
// PTP the transaction allocates and passes it on to the displaced hook.
func (tx *mmuTxn) recordPTP(f mem.Frame) {
	tx.newPTPs = append(tx.newPTPs, f)
	if tx.prevHook != nil {
		tx.prevHook(f)
	}
}

// mmuValidate checks reqs against a pending view of as — the address space
// overlaid with the transaction's earlier entries, so a protect may target
// a page an earlier map installs — and returns the working copy mmuCommit
// applies, so flag normalization by the policy survives into the commit.
// name labels denials. Nothing is written or charged. The copy is tx's
// scratch and lives until tx closes.
func (mon *Monitor) mmuValidate(tx *mmuTxn, as *asState, reqs []RingReq, name func(MMUOp) string) ([]RingReq, error) {
	tx.work = append(tx.work, reqs...)
	work, view := tx.work, tx.view
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
			if err := mon.userFramePolicy(op, as, va, r.Frame, &r.Flags); err != nil {
				return nil, err
			}
			next = r.Frame
		case OpUnmap:
		case OpProtect:
			if err := mon.userFramePolicy(op, as, va, f, &r.Flags); err != nil {
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
			if mon.roles[f].kind != roleCommon {
				return nil, denied(op, "frame %d is not common-region memory", f)
			}
		default:
			return nil, denied(op, "unknown MMU op %d", r.Op)
		}
		view[va] = next
	}
	return work, nil
}

// mmuUndo restores one committed entry on rollback: the leaf setLeaf
// replaced at va (0: none).
type mmuUndo struct {
	va   paging.Addr
	prev paging.PTE
}

// mmuCommit applies entries validated by mmuValidate and returns the
// invalidation set: one (root, VA) pair per leaf the flush rule names,
// deduplicated, in commit order. A failure restores the installed prefix
// in reverse, returns the PTPs the transaction allocated to the monitor
// pool and shoots down every VA it rewrote. The set is tx's scratch and
// lives until tx closes.
func (mon *Monitor) mmuCommit(c *cpu.Core, tx *mmuTxn, as *asState, work []RingReq) ([]cpu.ShootdownPair, error) {
	tx.prevHook = as.tables.OnPTPAlloc
	as.tables.OnPTPAlloc = tx.onPTP
	defer func() { as.tables.OnPTPAlloc, tx.prevHook = tx.prevHook, nil }()

	rollback := func(failedVA paging.Addr) {
		installed := tx.undo
		undone := make([]paging.Addr, 0, len(installed))
		for i := len(installed) - 1; i >= 0; i-- {
			u := installed[i]
			undone = append(undone, u.va)
			if _, err := mon.setLeaf(as, u.va, u.prev); err != nil {
				// A rollback that cannot restore a leaf leaves the address
				// space short of the state the transaction started from —
				// that must never vanish silently.
				mon.recordViolation("MMU rollback: restore of va %#x failed: %v", u.va, err)
			}
		}
		// With every installed leaf undone (and the failing entry never
		// applied), any table page this transaction allocated on these paths
		// is empty again: release it so a failed transaction consumes no PTP
		// frames. Pre-existing tables are refused and left in place.
		release := func(f mem.Frame) bool {
			if !slices.Contains(tx.newPTPs, f) {
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

	flush := func(va paging.Addr) {
		if p := (cpu.ShootdownPair{Root: as.tables.Root, VA: va}); !slices.Contains(tx.pairs, p) {
			tx.pairs = append(tx.pairs, p)
		}
	}
	for _, r := range work {
		va := paging.PageBase(r.VA)
		var next paging.PTE // unmap and reclaim clear the leaf
		if r.Op == OpMap || r.Op == OpProtect {
			next = paging.UserLeaf(r.Frame, r.Flags.Writable, r.Flags.Exec)
		}
		prev, err := mon.setLeaf(as, va, next)
		if err != nil {
			rollback(va)
			return nil, err
		}
		// A reclaimed frame may be handed out again immediately, so reclaim
		// flushes even with no leaf present.
		if flushes(prev, next) || r.Op == OpReclaim {
			flush(va)
		}
		tx.undo = append(tx.undo, mmuUndo{va: va, prev: prev})
	}
	return tx.pairs, nil
}

// setLeaf stores next as the user leaf of va in as, or clears the leaf if
// next is 0, and returns the present leaf it replaced (0: none). Every user
// leaf the monitor writes goes through here; only InjectAuditViolation's
// deliberate alias bypasses it. It walks the tables once and writes the
// slot the walk found; only a store under a missing table walks again,
// through Map, which builds the table pages. It keeps as.userFrames in
// step, and counts and charges a write through pteWrite only when it
// stored an entry: clearing an absent leaf stores nothing. The caller
// flushes va when flushes(prev, next) holds.
func (mon *Monitor) setLeaf(as *asState, va paging.Addr, next paging.PTE) (paging.PTE, error) {
	prev, slot, reason := as.tables.Lookup(va)
	if reason == paging.FaultTableCorrupt {
		return 0, &paging.Fault{Reason: reason, Addr: va, Kind: paging.Read}
	}
	if reason != paging.FaultNone {
		if next == 0 {
			return 0, nil
		}
		prev = 0
	}
	var err error
	if slot != 0 {
		// The walk reached the leaf table. The monitor's tables carry no
		// OnPTEWrite hook; pteWrite below is their accounting.
		err = paging.WritePTE(as.tables.Phys, slot, next)
	} else {
		err = as.tables.Map(va, next)
	}
	if err != nil {
		return 0, err
	}
	if next == 0 {
		delete(as.userFrames, va)
	} else {
		as.userFrames[va] = next.Frame()
	}
	mon.pteWrite()
	return prev, nil
}

// flushes is the flush rule for a leaf write that replaced prev with next:
// a present leaf replaced by a different one, or cleared, may be cached on
// any core. A first install flushes nothing, since no core can have cached
// a translation that never existed.
func flushes(prev, next paging.PTE) bool { return prev != 0 && prev != next }

// sortedVAs returns the pages of m in VA order, so a walk over them frees
// frames and reports failures in a fixed order.
func sortedVAs[V any](m map[paging.Addr]V) []paging.Addr {
	vas := make([]paging.Addr, 0, len(m))
	for va := range m {
		vas = append(vas, va)
	}
	slices.Sort(vas)
	return vas
}

// pteWrite accounts one physical PTE write: it counts the write and charges
// it under monitor/pte-write. Every counted write goes through here, so the
// frame's cycles are PTEWrites times the write's cost.
func (mon *Monitor) pteWrite() {
	mon.Stats.PTEWrites++
	mon.M.Clock.ChargeFrame("monitor/pte-write", costs.EreborPTEWriteBody)
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
	return mon.gate(c, metrics.EMCGHCI, func() error {
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
	err := mon.gate(c, metrics.EMCGHCI, func() error {
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
