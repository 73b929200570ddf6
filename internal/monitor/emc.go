package monitor

import (
	"fmt"

	"github.com/asterisc-release/erebor-go/internal/costs"
	"github.com/asterisc-release/erebor-go/internal/cpu"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/metrics"
	"github.com/asterisc-release/erebor-go/internal/paging"
	"github.com/asterisc-release/erebor-go/internal/trace"
)

// ErrDenied is returned when the monitor's policy refuses an EMC request.
type ErrDenied struct {
	Op     string
	Reason string
}

func (e *ErrDenied) Error() string {
	return fmt.Sprintf("monitor: %s denied: %s", e.Op, e.Reason)
}

func denied(op, format string, args ...any) error {
	return &ErrDenied{Op: op, Reason: fmt.Sprintf(format, args...)}
}

// gate runs body inside the EMC entry/exit gates (Fig 5): IBT-checked
// entry, PKRS grant, secure-stack switch, dispatch, then full reversal.
// The gate cost constants reproduce Table 3's empty-EMC cycle count.
func (mon *Monitor) gate(c *cpu.Core, kind string, body func() error) error {
	mon.assertBooted()
	// Forward edge: the kernel reaches the gate via an indirect call; CET
	// IBT verifies the target carries endbr64 (only the entry gate does).
	if err := mon.M.IBT.IndirectBranch(EMCEntryAddr); err != nil {
		return err
	}
	mon.Stats.EMCs++
	mon.Met.Inc(metrics.FamilyEMC, metrics.KV("kind", kind))

	prevGateCore := mon.gateCore
	mon.gateCore = c
	defer func() { mon.gateCore = prevGateCore }()

	clock := &mon.M.Clock
	gateStart := clock.Now()
	// Profiler frame for the whole EMC round trip: body charges land under
	// monitor/emc/<kind>, with the fixed crossing costs split out below into
	// monitor/gate/* sub-frames so a profile diff can attribute gate-count
	// wins (e.g. the submission ring's) to the crossings themselves.
	mon.M.PushFrame("monitor/emc/" + kind)
	defer mon.M.PopFrame()
	// The gate is an open span, not a retro-stamped one: anything the body
	// records (violations, kills, nested interposes) parents into it, so a
	// session's tree explains where its EMC cycles went.
	gateSpan := mon.Rec.Begin()
	// This defer runs after the exit-gate charge below, so both the
	// per-kind cycle attribution and the recorded span cover the full EMC
	// round trip — which is what lets trace histogram sums reconcile
	// exactly against the Stats counters.
	defer func() {
		delta := clock.Now() - gateStart
		mon.Met.Add(metrics.FamilyEMCCycles, delta, metrics.KV("kind", kind))
		if mon.M.Attr.Active() {
			mon.Met.Add(metrics.FamilyTenantEMCCycles, delta,
				metrics.KV("tenant", mon.M.Attr.TenantLabel()), metrics.KV("kind", kind))
		}
		mon.Rec.EndSpan(gateSpan, trace.KindEMC, trace.TrackMonitor, "emc/"+kind)
		// The cadence sweep runs at gate exit — the natural deterministic
		// pulse: every simulation makes progress through EMCs, and the sweep
		// itself never charges the clock.
		mon.wdMaybeSweep()
	}()
	clock.ChargeFrame("monitor/gate/entry", costs.EMCEntryGate)
	c.EnterMonitorMode(mon.tok)
	c.RawWriteMSR(mon.tok, cpu.MSRPKRS, uint64(MonitorPKRS))
	retAddr := EMCEntryAddr + 0x40 // call site's return, tracked by the shadow stack
	if c.SStack != nil {
		c.SStack.Call(retAddr)
	}
	clock.ChargeFrame("monitor/gate/dispatch", costs.EMCDispatch)

	// Simulated mid-EMC preemption: the #INT gate must revoke monitor
	// permissions before the OS handler runs (Fig 5c-right).
	if mon.preemptHook != nil {
		h := mon.preemptHook
		mon.preemptHook = nil
		mon.preemptDuringEMC(c, h)
	}

	err := body()

	c.RawWriteMSR(mon.tok, cpu.MSRPKRS, uint64(NormalPKRS))
	if c.SStack != nil {
		if serr := c.SStack.Ret(retAddr); serr != nil {
			panic("monitor: shadow stack corrupted in EMC: " + serr.Error())
		}
	}
	c.ExitMonitorMode(mon.tok)
	clock.ChargeFrame("monitor/gate/exit", costs.EMCExitGate)
	return err
}

// preemptDuringEMC models an interrupt arriving while the gate holds
// monitor permissions: save PKRS on the secure stack, revoke, drop monitor
// mode, run the OS handler, then restore (paper Fig 5c-right steps a/b).
func (mon *Monitor) preemptDuringEMC(c *cpu.Core, handler func(c *cpu.Core)) {
	clock := &mon.M.Clock
	mon.M.PushFrame("monitor/gate/preempt")
	defer mon.M.PopFrame()
	clock.Charge(costs.InterruptDelivery + costs.InterruptGate)
	saved := c.MSR(cpu.MSRPKRS)
	c.RawWriteMSR(mon.tok, cpu.MSRPKRS, uint64(NormalPKRS))
	c.ExitMonitorMode(mon.tok)
	handler(c)
	c.EnterMonitorMode(mon.tok)
	c.RawWriteMSR(mon.tok, cpu.MSRPKRS, saved)
	clock.Charge(costs.InterruptGate)
}

// --- sensitive-instruction EMCs (Table 2 / Table 4) -------------------------

// EMCNop is the empty monitor call used by the Table 3 microbenchmark.
func (mon *Monitor) EMCNop(c *cpu.Core) error {
	return mon.gate(c, "nop", func() error { return nil })
}

// crPinnedCR0 and crPinnedCR4 are the protection bits the kernel may never
// clear (C2/C6 depend on them).
const crPinnedCR0 = cpu.CR0WP
const crPinnedCR4 = cpu.CR4SMEP | cpu.CR4SMAP | cpu.CR4PKS | cpu.CR4CET

// EMCWriteCR delegates mov-to-CR. Target values are validated: hardware
// protection bits are pinned on, and CR3 may only point at a registered
// address-space root.
func (mon *Monitor) EMCWriteCR(c *cpu.Core, reg cpu.CRReg, val uint64) error {
	return mon.gate(c, "cr", func() error {
		mon.M.Clock.Charge(costs.EreborCRWriteBody - costs.NativeCRWrite)
		switch reg {
		case cpu.CR0:
			if val&crPinnedCR0 != crPinnedCR0 {
				return denied("write-CR0", "attempt to clear pinned protection bits (%#x)", val)
			}
		case cpu.CR4:
			if val&crPinnedCR4 != crPinnedCR4 {
				return denied("write-CR4", "attempt to clear pinned protection bits (%#x)", val)
			}
		case cpu.CR3:
			if _, ok := mon.rootIndex[mem.FrameOf(mem.Addr(val))]; !ok {
				return denied("write-CR3", "%#x is not a registered address-space root", val)
			}
		}
		if t := c.WriteCR(reg, val); t != nil {
			return t
		}
		return nil
	})
}

// msrAllowed lists MSRs the kernel may still set (with validation); the
// protection-feature MSRs are monitor-exclusive.
func msrAllowed(idx uint32) bool {
	switch idx {
	case cpu.MSRPKRS, cpu.MSRSCET, cpu.MSRPL0SSP, cpu.MSRLSTAR, cpu.MSRUINTRTT:
		return false
	}
	return true
}

// EMCWriteMSR delegates wrmsr with an allow-list.
func (mon *Monitor) EMCWriteMSR(c *cpu.Core, idx uint32, val uint64) error {
	return mon.gate(c, "msr", func() error {
		mon.M.Clock.Charge(costs.EreborMSRWriteBody - costs.NativeMSRWrite)
		if !msrAllowed(idx) {
			return denied("wrmsr", "MSR %#x is monitor-exclusive", idx)
		}
		if t := c.WriteMSR(idx, val); t != nil {
			return t
		}
		return nil
	})
}

// EMCSetVector lets the kernel register its handler for a vector. The live
// IDT entry stays monitor-owned (the #INT gate); only the forwarding target
// changes — which is why this EMC is cheaper than a native lidt (Table 4).
func (mon *Monitor) EMCSetVector(c *cpu.Core, vec uint8, h cpu.Handler) error {
	return mon.gate(c, "idt", func() error {
		mon.M.Clock.Charge(costs.EreborIDTLoadBody)
		if vec == cpu.VecSyscall {
			return denied("set-vector", "syscall entry is registered via EMCSetSyscallEntry")
		}
		mon.kernelVectors[vec] = h
		return nil
	})
}

// EMCSetSyscallEntry registers the kernel's syscall handler; IA32_LSTAR
// itself keeps pointing at the monitor (exit interposition, §6.2).
func (mon *Monitor) EMCSetSyscallEntry(c *cpu.Core, h func(c *cpu.Core, t *cpu.Trap)) error {
	return mon.gate(c, "idt", func() error {
		mon.M.Clock.Charge(costs.EreborIDTLoadBody)
		mon.kernelSyscall = h
		return nil
	})
}

// CopyDir is the direction of a user-copy request.
type CopyDir int

const (
	CopyToUser CopyDir = iota
	CopyFromUser
)

// EMCUserCopy emulates copy_from_user/copy_to_user on the kernel's behalf:
// the kernel cannot execute stac, so the monitor performs the access window
// (stac ... clac) itself after validating the target (§6.1).
func (mon *Monitor) EMCUserCopy(c *cpu.Core, asid ASID, dir CopyDir, userVA uint64, buf []byte) error {
	return mon.gate(c, "smap", func() error {
		mon.M.Clock.Charge(costs.EreborSMAPBody - costs.NativeSMAP)
		mon.Stats.UserCopies++
		as, ok := mon.addrSpaces[asid]
		if !ok {
			return denied("user-copy", "unknown address space %d", asid)
		}
		// Sandboxed address spaces holding client data are off limits: the
		// kernel has no business touching their user memory (C6). Before
		// data install, runtime-setup syscalls may still copy.
		if sb := mon.sandboxByAS(asid); sb != nil && sb.dataInstalled {
			return denied("user-copy", "address space %d belongs to sandbox %d holding client data", asid, sb.id)
		}
		if t := c.STAC(); t != nil {
			return t
		}
		defer func() {
			if t := c.CLAC(); t != nil {
				panic(t.Error())
			}
		}()
		return mon.copyUser(c, as, dir, userVA, buf)
	})
}

// copyUser performs the checked copy through the target AS's page tables.
func (mon *Monitor) copyUser(c *cpu.Core, as *asState, dir CopyDir, userVA uint64, buf []byte) error {
	// Access through the live CPU path would use CR3; the kernel may be
	// copying for a non-current AS during setup, so walk explicitly.
	va := userVA
	off := 0
	for off < len(buf) {
		pte, _, f := as.tables.Walk(paging.Addr(va))
		if f != nil || !pte.Is(paging.Present) || !pte.Is(paging.User) {
			return denied("user-copy", "user page %#x not mapped", va)
		}
		if dir == CopyToUser && !pte.Is(paging.Writable) {
			return denied("user-copy", "user page %#x not writable", va)
		}
		pageOff := int(va & 0xFFF)
		n := minInt(4096-pageOff, len(buf)-off)
		pa := pte.Frame().Base() + mem.Addr(pageOff)
		var err error
		if dir == CopyToUser {
			err = mon.M.Phys.WritePhys(pa, buf[off:off+n])
		} else {
			err = mon.M.Phys.ReadPhys(pa, buf[off:off+n])
		}
		if err != nil {
			return err
		}
		mon.M.Clock.Charge(costs.Copy(n))
		va += uint64(n)
		off += n
	}
	return nil
}

// EMCLoadModule validates dynamic kernel code (LKM/eBPF/text_poke payloads)
// with the same byte-level scan as the boot-time kernel image (§5.2), then
// approves it for execute mapping. Returns the frames holding the code.
func (mon *Monitor) EMCLoadModule(c *cpu.Core, code []byte) (uint64, error) {
	var va uint64
	err := mon.gate(c, "module", func() error {
		mon.M.Clock.Charge(costs.Copy(len(code)) + uint64(len(code))/4)
		v, err := mon.loadKernelCode(code)
		va = v
		return err
	})
	return va, err
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
