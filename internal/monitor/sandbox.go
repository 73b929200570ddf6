package monitor

import (
	"encoding/binary"
	"slices"

	"github.com/asterisc-release/erebor-go/internal/costs"
	"github.com/asterisc-release/erebor-go/internal/cpu"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/paging"
	"github.com/asterisc-release/erebor-go/internal/secchan"
	"github.com/asterisc-release/erebor-go/internal/trace"
)

// SandboxID names an EREBOR-SANDBOX instance.
type SandboxID int

type attachment struct {
	sb       SandboxID
	asid     ASID
	base     paging.Addr
	writable bool
}

// commonRegion is a monitor-managed shared read-only region (ML models,
// databases, shared libraries — §6.1).
type commonRegion struct {
	name     string
	numID    uint64 // ioctl-ABI region id
	frames   []mem.Frame
	frameSet map[mem.Frame]bool
	sealed   bool
	attached []attachment
}

type sbState struct {
	id    SandboxID
	asid  ASID
	owner mem.Owner

	budgetPages uint64
	usedPages   uint64

	// confined maps declared page VAs to their reserved (pinned) frames;
	// confinedLeaf holds the PTE template installed on first touch. Frames
	// are reserved and pinned at declare time; PTEs are populated lazily by
	// the fault path (kernel accounting + EMCMapSandboxFault).
	confined       map[paging.Addr]mem.Frame
	confinedLeaf   map[paging.Addr]paging.PTE
	confinedFrames []mem.Frame
	commons        map[string]bool

	dataInstalled bool
	destroyed     bool
	killReason    string

	// Snapshot/fork state: template names the source template of a forked
	// sandbox (0 = built cold); cowPages marks declared pages still sharing
	// the template's frame copy-on-write (mapped read-only until the first
	// write copies them via cowBreakLocked); cowReleased latches the
	// template-reference drop so the kill and end paths never double-release.
	template    TemplateID
	cowPages    map[paging.Addr]bool
	cowReleased bool

	// Register protection at external interrupts (§6.2).
	savedRegs cpu.Regs
	regsSaved bool

	// Secure-channel state (§6.3). The record connection is wrapped in the
	// resilience layer: the proxy/host may drop, duplicate, reorder or
	// replay frames, and the monitor's side absorbs that (deduplicating on
	// record sequence numbers, retransmitting retained responses when the
	// client retries).
	conn         *secchan.Reliable
	pendingInput [][]byte

	// Stats.
	Exits      uint64
	Faults     uint64
	InputMsgs  uint64
	OutputMsgs uint64

	// Exit-rate limiting window (§11 covert-channel mitigation).
	rateWindowStart uint64
	rateWindowExits uint64
}

// sandboxByAS resolves the live sandbox hosted by an address space.
// Destroyed carcasses are skipped: an ended sandbox stays registered while
// its address space lives on (the kernel may even convert that space
// again) and retires with it in EMCDestroyAS, and map-iteration order must
// never decide which corpse wins (determinism).
func (mon *Monitor) sandboxByAS(asid ASID) *sbState {
	for _, sb := range mon.sandboxes {
		if sb.asid == asid && !sb.destroyed {
			return sb
		}
	}
	return nil
}

// Sandbox lookup for the harness (read-only view).
type SandboxInfo struct {
	ID            SandboxID
	ASID          ASID
	ConfinedPages uint64
	DataInstalled bool
	Destroyed     bool
	KillReason    string
	Exits         uint64
	Faults        uint64
	InputMsgs     uint64
	OutputMsgs    uint64
	// Template names the snapshot template this sandbox was forked from
	// (0 = built cold); CowPages counts pages still sharing template frames.
	Template TemplateID
	CowPages uint64
}

// SandboxInfo returns a snapshot of a sandbox's state.
func (mon *Monitor) SandboxInfo(id SandboxID) (SandboxInfo, bool) {
	sb, ok := mon.sandboxes[id]
	if !ok {
		return SandboxInfo{}, false
	}
	return SandboxInfo{
		ID: sb.id, ASID: sb.asid, ConfinedPages: sb.usedPages,
		DataInstalled: sb.dataInstalled, Destroyed: sb.destroyed,
		KillReason: sb.killReason, Exits: sb.Exits, Faults: sb.Faults,
		InputMsgs: sb.InputMsgs, OutputMsgs: sb.OutputMsgs,
		Template: sb.template, CowPages: uint64(len(sb.cowPages)),
	}, true
}

// EMCCreateSandbox converts an address space into an EREBOR-SANDBOX with a
// confined-memory budget (hard limit set by the service provider, §6.1).
func (mon *Monitor) EMCCreateSandbox(c *cpu.Core, asid ASID, budgetPages uint64) (SandboxID, error) {
	var id SandboxID
	err := mon.gate(c, "sandbox", func() error {
		as, ok := mon.addrSpaces[asid]
		if !ok {
			return denied("create-sandbox", "unknown address space %d", asid)
		}
		if sb := mon.sandboxByAS(asid); sb != nil && !sb.destroyed {
			return denied("create-sandbox", "address space %d already hosts sandbox %d", asid, sb.id)
		}
		mon.nextSBID++
		id = mon.nextSBID
		mon.sandboxes[id] = &sbState{
			id: id, asid: asid, owner: as.owner, budgetPages: budgetPages,
			confined:     make(map[paging.Addr]mem.Frame),
			confinedLeaf: make(map[paging.Addr]paging.PTE),
			commons:      make(map[string]bool),
		}
		return nil
	})
	return id, err
}

// EMCDeclareConfined allocates, maps and pins npages of confined memory at
// va in the sandbox (single-mapping, pinned, CVM-private). Frames come
// from the reserved CMA region.
func (mon *Monitor) EMCDeclareConfined(c *cpu.Core, id SandboxID, va paging.Addr, npages uint64, exec bool) error {
	return mon.gate(c, "sandbox", func() error {
		sb, ok := mon.sandboxes[id]
		if !ok || sb.destroyed {
			return denied("declare-confined", "no live sandbox %d", id)
		}
		return mon.declareConfinedLocked(sb, va, npages, exec)
	})
}

// EMCCommonCreate allocates a named common region of npages (not yet
// attached anywhere; the creating service initializes it through an
// unsealed writable attachment).
func (mon *Monitor) EMCCommonCreate(c *cpu.Core, name string, npages uint64) error {
	return mon.gate(c, "sandbox", func() error {
		if _, ok := mon.commons[name]; ok {
			return denied("common-create", "region %q exists", name)
		}
		mon.nextCommonID++
		cr := &commonRegion{name: name, numID: mon.nextCommonID, frameSet: make(map[mem.Frame]bool)}
		for p := uint64(0); p < npages; p++ {
			f, err := mon.M.Phys.Alloc(mem.OwnerCommon)
			if err != nil {
				return err
			}
			if err := mon.M.Phys.Zero(f); err != nil {
				return err
			}
			cr.frames = append(cr.frames, f)
			cr.frameSet[f] = true
		}
		mon.M.Clock.Charge(npages * costs.PageZero)
		mon.commons[name] = cr
		return nil
	})
}

// EMCPopulateCommon writes initialization data (a model, a database) into
// a common region before it seals. The paper lets the initializing service
// write through an unsealed writable attachment; this EMC is the
// equivalent bulk-load interface for the service provider's loader.
func (mon *Monitor) EMCPopulateCommon(c *cpu.Core, name string, offset uint64, data []byte) error {
	return mon.gate(c, "sandbox", func() error {
		cr, ok := mon.commons[name]
		if !ok {
			return denied("populate-common", "no common region %q", name)
		}
		if cr.sealed {
			return denied("populate-common", "region %q is sealed", name)
		}
		if offset+uint64(len(data)) > uint64(len(cr.frames))*mem.PageSize {
			return denied("populate-common", "write past region end")
		}
		off := offset
		rem := data
		for len(rem) > 0 {
			f := cr.frames[off/mem.PageSize]
			po := off % mem.PageSize
			n := int(mem.PageSize - po)
			if n > len(rem) {
				n = len(rem)
			}
			if err := mon.M.Phys.WritePhys(f.Base()+mem.Addr(po), rem[:n]); err != nil {
				return err
			}
			mon.M.Clock.Charge(costs.Copy(n))
			off += uint64(n)
			rem = rem[n:]
		}
		return nil
	})
}

// CommonPages returns the page count of a common region.
func (mon *Monitor) CommonPages(name string) (uint64, bool) {
	cr, ok := mon.commons[name]
	if !ok {
		return 0, false
	}
	return uint64(len(cr.frames)), true
}

// EMCCommonAttach maps a common region into a sandbox at base. Writable
// attachments are only possible before the region seals (first client-data
// install among its consumers).
func (mon *Monitor) EMCCommonAttach(c *cpu.Core, id SandboxID, name string, base paging.Addr, writable bool) error {
	return mon.gate(c, "sandbox", func() error {
		return mon.commonAttachLocked(id, name, base, writable)
	})
}

func (mon *Monitor) commonAttachLocked(id SandboxID, name string, base paging.Addr, writable bool) error {
	sb, ok := mon.sandboxes[id]
	if !ok || sb.destroyed {
		return denied("common-attach", "no live sandbox %d", id)
	}
	cr, ok := mon.commons[name]
	if !ok {
		return denied("common-attach", "no common region %q", name)
	}
	if writable && cr.sealed {
		return denied("common-attach", "region %q is sealed read-only", name)
	}
	if sb.dataInstalled && writable {
		return denied("common-attach", "sandbox %d holds client data; writable attach refused", id)
	}
	sb.commons[name] = true
	as := mon.addrSpaces[sb.asid]
	// Attach lazily: record the attachment; pages fault in on first touch
	// (this is what produces the common-memory page-fault traffic the paper
	// reports for llama.cpp, Table 6).
	cr.attached = append(cr.attached, attachment{sb: id, asid: sb.asid, base: base, writable: writable})
	_ = as
	return nil
}

// sealCommons revokes write permission for every attachment of every
// region the sandbox consumes (paper: "Once client data is loaded, the
// monitor clears the W bit in the relevant PTEs"). Any core may still hold
// the writable translation in its TLB, so each affected address space gets
// a batched shootdown of the leaves that actually changed — without it a
// sibling sandbox on another vCPU could keep writing a sealed region.
func (mon *Monitor) sealCommons(c *cpu.Core, sb *sbState) {
	defer mon.wdPhaseSweep(TriggerSeal)
	for name := range sb.commons {
		cr := mon.commons[name]
		if cr.sealed {
			continue
		}
		cr.sealed = true
		for _, at := range cr.attached {
			as, ok := mon.addrSpaces[at.asid]
			if !ok {
				continue
			}
			var stale []paging.Addr
			for p := range cr.frames {
				va := at.base + paging.Addr(p*mem.PageSize)
				// Only present leaves need the W bit cleared.
				leaf, _, reason := as.tables.Lookup(va)
				if reason != paging.FaultNone {
					continue // not yet faulted in; will map read-only
				}
				next := leaf &^ paging.Writable
				if prev, err := mon.setLeaf(as, va, next); err != nil {
					mon.recordViolation("seal %q: va %#x: %v", name, va, err)
				} else if flushes(prev, next) {
					stale = append(stale, va)
				}
			}
			mon.M.Shootdown(c, as.tables.Root, stale...)
		}
	}
}

// commonFaultFor finds the attachment covering a faulting sandbox VA.
func (mon *Monitor) commonFaultFor(sb *sbState, va paging.Addr) (*commonRegion, *attachment, uint64) {
	for name := range sb.commons {
		cr := mon.commons[name]
		for i := range cr.attached {
			at := &cr.attached[i]
			if at.sb != sb.id {
				continue
			}
			size := paging.Addr(uint64(len(cr.frames)) * mem.PageSize)
			if va >= at.base && va < at.base+size {
				return cr, at, uint64((va - at.base) / mem.PageSize)
			}
		}
	}
	return nil, nil, 0
}

// killSandbox enforces C8: scrub and terminate a sandbox that attempted a
// prohibited exit. All confined memory is zeroed immediately.
func (mon *Monitor) killSandbox(sb *sbState, reason string) {
	mon.Stats.SandboxKills++
	mon.Rec.Emit(trace.KindSandboxKill, trace.SandboxTrack(int(sb.id)), reason)
	sb.killReason = reason
	mon.scrubSandbox(sb)
	mon.releaseCowLocked(sb)
	sb.destroyed = true
	if mon.KillNotify != nil {
		mon.KillNotify(sb.id, reason)
	}
}

// scrubSandbox zeroes confined frames, in-memory state and saved contexts.
func (mon *Monitor) scrubSandbox(sb *sbState) {
	for _, f := range sb.confinedFrames {
		if err := mon.M.Phys.Zero(f); err == nil {
			mon.M.Clock.Charge(costs.PageZero)
		}
	}
	sb.savedRegs.Scrub()
	sb.pendingInput = nil
}

// EMCKillSandbox lets the kernel route an unrecoverable failure inside a
// hosting task through the monitor's C8 kill path (scrub + notify). The
// untrusted kernel can already deny service to any sandbox, so this EMC
// grants no new authority — it only makes the teardown typed and scrubbed.
func (mon *Monitor) EMCKillSandbox(c *cpu.Core, id SandboxID, reason string) {
	_ = mon.gate(c, "sandbox", func() error {
		sb, ok := mon.sandboxes[id]
		if !ok || sb.destroyed {
			return nil
		}
		mon.killSandbox(sb, reason)
		return nil
	})
}

// retireChannel folds a sandbox channel's resilience counters into the
// monitor-wide retired aggregate and drops the channel state.
func (mon *Monitor) retireChannel(sb *sbState) {
	if sb.conn == nil {
		return
	}
	mon.retiredChan.Add(sb.conn.Stats)
	sb.conn = nil
}

// retireSandboxesLocked drops the records of the ended sandboxes an address
// space hosted, once the space is destroyed. An ended sandbox freed its
// confined frames at session end; a killed one was only scrubbed, so its
// frames are freed here, after the destroy unmapped and flushed them. The
// channel counters fold into the retired aggregate and the common-region
// attachments go with the record. Records retire in ID order, so the frame
// pool order stays deterministic.
func (mon *Monitor) retireSandboxesLocked(asid ASID) {
	var ids []SandboxID
	for id, sb := range mon.sandboxes {
		if sb.asid == asid {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	for _, id := range ids {
		sb := mon.sandboxes[id]
		for _, f := range sb.confinedFrames {
			if mon.confinedOwner[f] != id {
				continue // freed at session end, maybe reissued since
			}
			delete(mon.confinedOwner, f)
			_ = mon.M.Phys.SetPinned(f, false)
			_ = mon.M.Phys.Free(f)
		}
		mon.retireChannel(sb)
		for name := range sb.commons {
			cr := mon.commons[name]
			cr.attached = slices.DeleteFunc(cr.attached, func(at attachment) bool { return at.sb == id })
		}
		delete(mon.sandboxes, id)
	}
}

// EMCSandboxEnd terminates a client session cleanly: results already sent,
// the monitor zeroes the sandbox's memory (§6.3 cleanup) and releases the
// confined frames.
func (mon *Monitor) EMCSandboxEnd(c *cpu.Core, id SandboxID) error {
	return mon.gate(c, "sandbox", func() error {
		sb, ok := mon.sandboxes[id]
		if !ok {
			return denied("sandbox-end", "unknown sandbox %d", id)
		}
		mon.endSandboxLocked(c, sb, "session end")
		return nil
	})
}

func (mon *Monitor) endSandboxLocked(c *cpu.Core, sb *sbState, reason string) {
	if sb.destroyed {
		return
	}
	mon.scrubSandbox(sb)
	mon.retireChannel(sb)
	as := mon.addrSpaces[sb.asid]
	// Pages still CoW-shared with a template are not this sandbox's to free
	// — or even to unmap here: most were never installed (the fork records
	// leaves lazily), so releaseCowLocked below unmaps just the faulted-in
	// ones and drops only the refcount (the template's baseline keeps the
	// frame alive). That is what keeps fork teardown O(pages touched)
	// rather than O(template pages).
	own := make([]paging.Addr, 0, len(sb.confined)-len(sb.cowPages))
	for va := range sb.confined {
		if !sb.cowPages[va] {
			own = append(own, va)
		}
	}
	// Free in VA order: the CMA pool is LIFO, so this order decides which
	// frame the next confined allocation gets.
	slices.Sort(own)
	for _, va := range own {
		if as != nil {
			if _, err := mon.setLeaf(as, va, 0); err != nil {
				// Still mapped: the frame stays pinned and owned, and
				// retires with the address space.
				mon.recordViolation("sandbox-end %d: clearing va %#x: %v", sb.id, va, err)
				continue
			}
		}
		f := sb.confined[va]
		delete(mon.confinedOwner, f)
		_ = mon.M.Phys.SetPinned(f, false)
		_ = mon.M.Phys.Free(f)
	}
	mon.releaseCowLocked(sb)
	// The confined frames are free for reallocation the moment this
	// returns; kill every core's cached translations into this address
	// space first (the shootdown invariant the single-mapping policy rests
	// on — a stale TLB entry would be a cross-tenant read primitive).
	if as != nil {
		mon.M.ShootdownRoot(c, as.tables.Root)
	}
	sb.destroyed = true
	sb.killReason = reason
	mon.wdPhaseSweep(TriggerEnd)
}

// installInput writes one client message into the sandbox buffer described
// by the LibOS's IOPayload at payloadVA, flipping the sandbox into the
// data-installed (locked-down) state on first install.
func (mon *Monitor) installInput(c *cpu.Core, sb *sbState, payloadVA paging.Addr) uint64 {
	var hdr [16]byte
	if err := mon.readSandbox(sb, payloadVA, hdr[:]); err != nil {
		return errnoFault
	}
	bufVA := paging.Addr(binary.LittleEndian.Uint64(hdr[0:8]))
	bufCap := binary.LittleEndian.Uint64(hdr[8:16])

	if len(sb.pendingInput) == 0 {
		mon.pumpChannel(sb)
	}
	if len(sb.pendingInput) == 0 {
		return 0 // no client data pending
	}
	data := sb.pendingInput[0]
	sb.pendingInput = sb.pendingInput[1:]
	if uint64(len(data)) > bufCap {
		data = data[:bufCap]
	}
	// The destination must be confined memory (the monitor writes client
	// data only into sandbox-exclusive pages).
	for off := uint64(0); off < uint64(len(data)); off += mem.PageSize {
		pva := paging.PageBase(bufVA + paging.Addr(off))
		if _, ok := sb.confined[pva]; !ok {
			return errnoFault
		}
	}
	if err := mon.writeSandbox(sb, bufVA, data); err != nil {
		return errnoFault
	}
	// Write back the installed size.
	var szb [8]byte
	binary.LittleEndian.PutUint64(szb[:], uint64(len(data)))
	if err := mon.writeSandbox(sb, payloadVA+8, szb[:]); err != nil {
		return errnoFault
	}
	sb.InputMsgs++
	if !sb.dataInstalled {
		sb.dataInstalled = true
		mon.sealCommons(c, sb)
	}
	return uint64(len(data))
}

// emitOutput reads the result buffer from sandbox memory, pads it to fixed
// length, and sends it over the secure channel.
func (mon *Monitor) emitOutput(sb *sbState, payloadVA paging.Addr) uint64 {
	var hdr [16]byte
	if err := mon.readSandbox(sb, payloadVA, hdr[:]); err != nil {
		return errnoFault
	}
	bufVA := paging.Addr(binary.LittleEndian.Uint64(hdr[0:8]))
	size := binary.LittleEndian.Uint64(hdr[8:16])
	buf := make([]byte, size)
	if err := mon.readSandbox(sb, bufVA, buf); err != nil {
		return errnoFault
	}
	// Quantized release (§11): hold the result until the next interval
	// boundary so output timing carries no signal.
	if mon.OutputQuantum > 0 {
		now := mon.M.Clock.Now()
		wait := mon.OutputQuantum - now%mon.OutputQuantum
		mon.M.Clock.Charge(wait)
	}
	if sb.conn == nil {
		// No live channel: the DebugFS-emulation path the paper's artifact
		// uses for evaluation (§7) — results land in a monitor-side queue.
		mon.debugOut = append(mon.debugOut, buf)
		sb.OutputMsgs++
		return uint64(len(buf))
	}
	if err := sb.conn.Send(buf); err != nil { // Conn pads to fixed blocks
		return errnoFault
	}
	sb.OutputMsgs++
	return uint64(len(buf))
}

// DebugOutputs drains the channel-less output queue (evaluation harness).
func (mon *Monitor) DebugOutputs() [][]byte {
	out := mon.debugOut
	mon.debugOut = nil
	return out
}

const errnoFault = ^uint64(13) // -14 (EFAULT)

// readSandbox/writeSandbox move bytes through the sandbox's page tables,
// installing lazily-mapped declared pages as needed.
func (mon *Monitor) readSandbox(sb *sbState, va paging.Addr, buf []byte) error {
	return mon.moveSandbox(sb, va, buf, false)
}

func (mon *Monitor) writeSandbox(sb *sbState, va paging.Addr, buf []byte) error {
	return mon.moveSandbox(sb, va, buf, true)
}

func (mon *Monitor) moveSandbox(sb *sbState, va paging.Addr, buf []byte, write bool) error {
	as := mon.addrSpaces[sb.asid]
	off := 0
	for off < len(buf) {
		// A monitor-side write to a CoW-shared page must break the share
		// first — writing through the walked PTE would land in the template
		// frame every other fork reads.
		if write && sb.cowPages[paging.PageBase(va)] {
			if err := mon.cowBreakLocked(sb, paging.PageBase(va)); err != nil {
				return err
			}
		}
		pte, _, _ := as.tables.Lookup(va)
		if !pte.Is(paging.Present | paging.User) {
			// Install a declared confined page on first touch. No leaf was
			// present, so no core can cache one: nothing to flush.
			leaf, ok := sb.confinedLeaf[paging.PageBase(va)]
			if !ok {
				return denied("sandbox-io", "va %#x not mapped", va)
			}
			if _, err := mon.setLeaf(as, paging.PageBase(va), leaf); err != nil {
				return denied("sandbox-io", "va %#x not mapped: %v", va, err)
			}
			pte = leaf
		}
		_, pageOff := paging.Split(va)
		n := minInt(int(mem.PageSize-pageOff), len(buf)-off)
		pa := pte.Frame().Base() + mem.Addr(pageOff)
		var err error
		if write {
			err = mon.M.Phys.WritePhys(pa, buf[off:off+n])
		} else {
			err = mon.M.Phys.ReadPhys(pa, buf[off:off+n])
		}
		if err != nil {
			return err
		}
		mon.M.Clock.Charge(costs.Copy(n))
		va += paging.Addr(n)
		off += n
	}
	return nil
}
