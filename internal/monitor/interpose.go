package monitor

import (
	"fmt"
	"strconv"

	"github.com/asterisc-release/erebor-go/internal/abi"
	"github.com/asterisc-release/erebor-go/internal/costs"
	"github.com/asterisc-release/erebor-go/internal/cpu"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/paging"
	"github.com/asterisc-release/erebor-go/internal/tdx"
	"github.com/asterisc-release/erebor-go/internal/trace"
)

// intGate is the monitor-owned entry for every IDT vector (Fig 5c-right
// and Fig 7): it classifies the exit, applies sandbox policy, and forwards
// legitimate events to the kernel's registered handlers.
func (mon *Monitor) intGate(c *cpu.Core, t *cpu.Trap) {
	mon.M.Clock.Charge(costs.InterruptGate)
	mon.Stats.InterposeCycles += costs.InterruptGate
	if mon.Rec.Enabled() {
		mon.Rec.Emit(trace.KindInterpose, trace.TrackMonitor, "vec/"+strconv.Itoa(int(t.Vector)))
	}
	// Exceptions and hardware interrupts re-cross the gate on the return
	// edge (PKRS restore, Fig 5c-right b); the syscall path returns through
	// the cheaper sysret stub.
	if t.Vector != cpu.VecSyscall {
		defer func() {
			mon.M.Clock.Charge(costs.InterruptGate)
			mon.Stats.InterposeCycles += costs.InterruptGate
		}()
	}
	// TLB-shootdown IPIs terminate inside the monitor: the initiating core
	// already performed the invalidation on every core's TLB, so the remote
	// handler only acknowledges the interrupt. It is never forwarded — the
	// kernel may not even have registered vectors yet (shootdowns fire from
	// monitor-internal paths during kernel load).
	if t.Vector == cpu.VecIPI && t.Detail == cpu.ShootdownDetail {
		return
	}
	asid, _ := mon.rootIndex[c.CR3Frame()]
	var sb *sbState
	if asid != 0 {
		sb = mon.sandboxByAS(asid)
	}
	if sb != nil && !sb.destroyed && t.FromRing == 3 {
		mon.handleSandboxExit(c, t, sb)
		return
	}
	mon.forwardToKernel(c, t)
}

// forwardToKernel hands a legitimate event to the kernel's registered
// handler. A kernel that never registered one is misbehaving (it owns
// handler registration through EMCs); the monitor records the violation and
// contains the transition — failing the syscall / killing the offending
// sandbox — rather than taking the whole CVM down. Graceful degradation:
// the kernel is untrusted, so its misconfiguration must never be fatal to
// the monitor.
func (mon *Monitor) forwardToKernel(c *cpu.Core, t *cpu.Trap) {
	if t.Vector == cpu.VecSyscall {
		mon.Stats.SyscallInterpositions++
		if mon.kernelSyscall == nil {
			mon.recordViolation("syscall %d with no kernel entry registered", c.Regs.GPR[cpu.RAX])
			mon.containBadTransition(c, t)
			c.Regs.GPR[cpu.RAX] = abi.Errno(abi.ENOSYSNo)
			return
		}
		mon.kernelSyscall(c, t)
		return
	}
	h := mon.kernelVectors[t.Vector]
	if h == nil {
		mon.recordViolation("vector %d has no kernel handler: %s", t.Vector, t.Error())
		mon.containBadTransition(c, t)
		return
	}
	h(c, t)
}

// containBadTransition kills the sandbox behind an event the kernel cannot
// handle (no registered handler); a bare kernel-context event is simply
// dropped — the transition dies, the monitor survives.
func (mon *Monitor) containBadTransition(c *cpu.Core, t *cpu.Trap) {
	if t.FromRing != 3 {
		return
	}
	asid, ok := mon.rootIndex[c.CR3Frame()]
	if !ok || asid == 0 {
		return
	}
	if sb := mon.sandboxByAS(asid); sb != nil && !sb.destroyed {
		mon.killSandbox(sb, fmt.Sprintf("unhandleable transition (vector %d, no kernel handler)", t.Vector))
	}
}

// handleSandboxExit implements the §6.2 exit policy (Fig 7).
func (mon *Monitor) handleSandboxExit(c *cpu.Core, t *cpu.Trap, sb *sbState) {
	sb.Exits++
	mon.Stats.SandboxExits++
	if mon.Rec.Enabled() {
		// Open span: kills and nested EMCs recorded while the exit is
		// handled parent into it.
		exitSpan := mon.Rec.Begin()
		defer mon.Rec.EndSpan(exitSpan, trace.KindSandboxExit, trace.SandboxTrack(int(sb.id)),
			"sandbox/"+strconv.Itoa(int(sb.id))+"/exit")
	}

	// Exit-rate limiting (§11): a sandbox modulating its exit frequency to
	// signal the OS gets killed once it exceeds the configured budget.
	if mon.ExitRateLimit > 0 && sb.dataInstalled {
		now := mon.M.Clock.Now()
		if now-sb.rateWindowStart > costs.HzPerSecond {
			sb.rateWindowStart = now
			sb.rateWindowExits = 0
		}
		sb.rateWindowExits++
		windowFrac := float64(now-sb.rateWindowStart+1) / float64(costs.HzPerSecond)
		if float64(sb.rateWindowExits) > float64(mon.ExitRateLimit)*windowFrac+16 {
			mon.killSandbox(sb, fmt.Sprintf("exit rate exceeded %d/s (covert-channel mitigation)", mon.ExitRateLimit))
			return
		}
	}

	switch t.Vector {
	case cpu.VecSyscall:
		num := c.Regs.GPR[cpu.RAX]
		if num == abi.SysIoctl && c.Regs.GPR[cpu.RDI] == abi.EreborDevFD {
			mon.handleSandboxIoctl(c, sb)
			return
		}
		if num == abi.SysYield {
			// Scheduling yield: carries no payload once the monitor masks the
			// register file (same save/scrub/restore interpose as a hardware
			// interrupt), and a resilient service must be able to yield while
			// polling for input post-install. The exit itself is the only
			// residual signal, and the exit-rate limiter above bounds that.
			mon.M.Clock.Charge(costs.SandboxExitInterpose)
			sb.savedRegs = c.Regs
			sb.regsSaved = true
			c.Regs.Scrub()
			c.Regs.GPR[cpu.RAX] = abi.SysYield
			mon.forwardToKernel(c, t)
			c.Regs = sb.savedRegs
			sb.regsSaved = false
			return
		}
		if sb.dataInstalled {
			mon.killSandbox(sb, fmt.Sprintf("syscall %d after client data install", num))
			c.Regs.GPR[cpu.RAX] = abi.Errno(abi.EPERMNo)
			return
		}
		// Pre-data: runtime setup syscalls are still forwarded.
		mon.forwardToKernel(c, t)

	case cpu.VecVE:
		if t.Detail == "cpuid" {
			mon.emulateCPUID(c, sb)
			return
		}
		if sb.dataInstalled {
			mon.killSandbox(sb, "VM exit (#VE) after client data install")
			return
		}
		mon.forwardToKernel(c, t)

	case cpu.VecPF:
		mon.sandboxFault(c, t, sb)

	default:
		if t.Vector >= 32 {
			// External interrupt: save + mask the sandbox's register state
			// before the untrusted kernel sees the core, restore after.
			mon.M.Clock.Charge(costs.SandboxExitInterpose)
			sb.savedRegs = c.Regs
			sb.regsSaved = true
			c.Regs.Scrub()
			mon.forwardToKernel(c, t)
			c.Regs = sb.savedRegs
			sb.regsSaved = false
			return
		}
		// Software exception (#GP, #UD, divide-by-zero, #CP...): after data
		// install these are kill-on-sight (C8).
		if sb.dataInstalled {
			mon.killSandbox(sb, fmt.Sprintf("software exception #%d after client data install", t.Vector))
			return
		}
		mon.forwardToKernel(c, t)
	}
}

// emulateCPUID serves cpuid from the monitor's cache, querying the host
// once per leaf (§6.2: "the monitor emulates it by requesting to the
// hypervisor once and caching the results").
func (mon *Monitor) emulateCPUID(c *cpu.Core, sb *sbState) {
	leaf := c.Regs.GPR[cpu.RAX]
	vals, ok := mon.cpuidCache[leaf]
	if !ok {
		// One host round trip, performed by the monitor (it owns tdcall).
		c.EnterMonitorMode(mon.tok)
		ret, trap := c.TDCall(tdx.LeafVMCall, []uint64{tdx.VMCallCPUID, leaf})
		c.ExitMonitorMode(mon.tok)
		if trap != nil || len(ret) < 4 {
			vals = [4]uint64{}
		} else {
			vals = [4]uint64{ret[0], ret[1], ret[2], ret[3]}
		}
		mon.cpuidCache[leaf] = vals
	} else {
		mon.M.Clock.Charge(costs.CPUIDEmulated)
	}
	c.Regs.GPR[cpu.RAX] = vals[0]
	c.Regs.GPR[cpu.RBX] = vals[1]
	c.Regs.GPR[cpu.RCX] = vals[2]
	c.Regs.GPR[cpu.RDX] = vals[3]
}

// sandboxFault handles a #PF taken inside a sandbox. Faults on attached
// common regions are legitimate demand paging: the monitor interposes
// (saving and masking the sandbox's register state) and forwards the fault
// *metadata* to the kernel's memory manager, which requests the mapping
// back through an EMC (EMCMapCommonFault) — the architecture of Fig 7.
// Anything else after data install kills the sandbox.
func (mon *Monitor) sandboxFault(c *cpu.Core, t *cpu.Trap, sb *sbState) {
	va := paging.PageBase(t.Fault.Addr)
	_, confined := sb.confined[va]
	cr, at, _ := mon.commonFaultFor(sb, va)
	if confined || cr != nil {
		if cr != nil && t.Fault.Kind == paging.Write && (cr.sealed || !at.writable) {
			mon.killSandbox(sb, fmt.Sprintf("write to sealed common region %q", cr.name))
			return
		}
		sb.Faults++
		mon.M.Clock.Charge(costs.SandboxExitInterpose)
		sb.savedRegs = c.Regs
		sb.regsSaved = true
		c.Regs.Scrub()
		mon.forwardToKernel(c, t)
		c.Regs = sb.savedRegs
		sb.regsSaved = false
		return
	}
	if sb.dataInstalled {
		mon.killSandbox(sb, fmt.Sprintf("page fault at %#x outside declared sandbox memory", t.Fault.Addr))
		return
	}
	mon.forwardToKernel(c, t)
}

// EMCMapSandboxFault installs the mapping for a faulting declared sandbox
// page (confined or attached common) on the kernel's behalf, after
// validating ownership, attachment and seal state. A denied call writes no
// PTE and pays only the gate.
func (mon *Monitor) EMCMapSandboxFault(c *cpu.Core, asid ASID, va paging.Addr, write bool) error {
	return mon.gate(c, "mmu", func() error {
		as, ok := mon.addrSpaces[asid]
		if !ok {
			return denied("map-sandbox-fault", "unknown address space %d", asid)
		}
		sb := mon.sandboxByAS(asid)
		if sb == nil || sb.destroyed {
			return denied("map-sandbox-fault", "no live sandbox on address space %d", asid)
		}
		va = paging.PageBase(va)
		prev, _, walkFault := as.tables.Walk(va)
		replaced := func(leaf paging.PTE) {
			if walkFault == nil && prev.Is(paging.Present) && prev != leaf {
				mon.M.Shootdown(c, as.tables.Root, va)
			}
		}
		if leaf, ok := sb.confinedLeaf[va]; ok {
			mon.pteWrite()
			// Write fault on a CoW-shared page: copy, re-own and re-key the
			// page before any byte of the write lands (the I4 single-mapping
			// invariant is re-established here, ahead of client data).
			if write && leaf.Is(paging.CoW) {
				if err := mon.cowBreakLocked(sb, va); err != nil {
					return err
				}
				leaf = sb.confinedLeaf[va]
				// The break replaced any installed read-only leaf itself;
				// re-walk so the shootdown logic below sees the fresh state.
				prev, _, walkFault = as.tables.Walk(va)
			}
			if err := as.tables.Map(va, leaf); err != nil {
				return err
			}
			replaced(leaf)
			as.userFrames[va] = leaf.Frame()
			return nil
		}
		cr, at, idx := mon.commonFaultFor(sb, va)
		if cr == nil {
			return denied("map-sandbox-fault", "va %#x not declared sandbox memory", va)
		}
		writable := at.writable && !cr.sealed
		if write && !writable {
			return denied("map-sandbox-fault", "region %q is read-only", cr.name)
		}
		f := cr.frames[idx]
		leaf := (paging.Present | paging.User | paging.NX).WithFrame(f)
		if writable {
			leaf |= paging.Writable
		}
		mon.pteWrite()
		if err := as.tables.Map(va, leaf); err != nil {
			return err
		}
		replaced(leaf)
		as.userFrames[va] = f
		return nil
	})
}

// handleSandboxIoctl services the Erebor pseudo-device (Fig 7 step 3).
// Each command is performed under the EMC gate so it is charged and counted
// like the LibOS driver's monitor call it models.
func (mon *Monitor) handleSandboxIoctl(c *cpu.Core, sb *sbState) {
	cmd := c.Regs.GPR[cpu.RSI]
	arg := c.Regs.GPR[cpu.RDX]
	var ret uint64
	err := mon.gate(c, "io", func() error {
		switch cmd {
		case abi.IoctlInput:
			ret = mon.installInput(c, sb, paging.Addr(arg))
		case abi.IoctlOutput:
			ret = mon.emitOutput(sb, paging.Addr(arg))
		case abi.IoctlDeclareConfined:
			npages := c.Regs.GPR[cpu.R10]
			exec := c.Regs.GPR[cpu.R8] != 0
			if err := mon.declareConfinedLocked(sb, paging.Addr(arg), npages, exec); err != nil {
				ret = abi.Errno(abi.ENOMEMNo)
				return err
			}
		case abi.IoctlAttachCommon:
			// RDX = base VA, R10 = region id registered via RegisterCommonName.
			name, ok := mon.commonNameByID(c.Regs.GPR[cpu.R10])
			if !ok {
				ret = abi.Errno(abi.EINVALNo)
				return nil
			}
			if err := mon.commonAttachLocked(sb.id, name, paging.Addr(arg), c.Regs.GPR[cpu.R8] != 0); err != nil {
				ret = abi.Errno(abi.EPERMNo)
				return nil
			}
		case abi.IoctlSessionEnd:
			mon.endSandboxLocked(c, sb, "session end")
			if mon.KillNotify != nil {
				mon.KillNotify(sb.id, "session end")
			}
		default:
			ret = abi.Errno(abi.EINVALNo)
		}
		return nil
	})
	if err != nil && ret == 0 {
		ret = abi.Errno(abi.EINVALNo)
	}
	c.Regs.GPR[cpu.RAX] = ret
}

// declareConfinedLocked is the gate-internal body shared by the EMC and the
// ioctl paths: it reserves, zeroes and pins CMA frames for the range and
// records the PTE templates. PTEs are installed lazily on first touch —
// which is why Erebor's confined memory shows up as page-fault traffic in
// Table 6 even though the frames are committed up front.
func (mon *Monitor) declareConfinedLocked(sb *sbState, va paging.Addr, npages uint64, exec bool) error {
	if sb.dataInstalled {
		return denied("declare-confined", "sandbox %d already holds client data", sb.id)
	}
	if sb.usedPages+npages > sb.budgetPages {
		return denied("declare-confined", "budget exceeded (%d+%d > %d pages)", sb.usedPages, npages, sb.budgetPages)
	}
	for p := uint64(0); p < npages; p++ {
		f, err := mon.M.Phys.AllocRegion(RegionCMA, sb.owner)
		if err != nil {
			return err
		}
		if err := mon.M.Phys.Zero(f); err != nil {
			return err
		}
		if err := mon.M.Phys.SetPinned(f, true); err != nil {
			return err
		}
		mon.confinedOwner[f] = sb.id
		pva := va + paging.Addr(p*mem.PageSize)
		leaf := (paging.Present | paging.User | paging.Writable).WithFrame(f)
		if !exec {
			leaf |= paging.NX
		}
		sb.confined[pva] = f
		sb.confinedLeaf[pva] = leaf
		sb.confinedFrames = append(sb.confinedFrames, f)
		mon.M.Clock.Charge(costs.PageZero + 40)
	}
	sb.usedPages += npages
	return nil
}

// ensurePage installs a confined or common mapping for va if the page is
// declared but not yet present (monitor-internal: data installation paths).
func (mon *Monitor) ensurePage(sb *sbState, va paging.Addr) error {
	as := mon.addrSpaces[sb.asid]
	if _, ok := as.userFrames[va]; ok {
		return nil
	}
	if leaf, ok := sb.confinedLeaf[va]; ok {
		if err := as.tables.Map(va, leaf); err != nil {
			return err
		}
		as.userFrames[va] = leaf.Frame()
		mon.pteWrite()
		return nil
	}
	return denied("ensure-page", "va %#x not declared", va)
}

// commonNameByID resolves the numeric region ids the ioctl ABI uses.
func (mon *Monitor) commonNameByID(id uint64) (string, bool) {
	for name, cr := range mon.commons {
		if cr.numID == id {
			return name, true
		}
	}
	return "", false
}

// CommonRegionID returns the numeric id assigned to a common region (for
// the LibOS ioctl ABI).
func (mon *Monitor) CommonRegionID(name string) (uint64, bool) {
	cr, ok := mon.commons[name]
	if !ok {
		return 0, false
	}
	return cr.numID, true
}
