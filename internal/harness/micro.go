package harness

import (
	"fmt"

	"github.com/asterisc-release/erebor-go/internal/abi"
	"github.com/asterisc-release/erebor-go/internal/cpu"
	"github.com/asterisc-release/erebor-go/internal/kernel"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/monitor"
	"github.com/asterisc-release/erebor-go/internal/paging"
	"github.com/asterisc-release/erebor-go/internal/tdx"
)

// TransitionCost is one row of Table 3.
type TransitionCost struct {
	Name   string
	Cycles uint64
	// RelEMC is the cost relative to an EMC (the paper's "Times" column).
	RelEMC float64
}

// MeasureTable3 measures the four privilege-transition round trips of
// Table 3 on live worlds: empty EMC, empty syscall, tdcall (TD guest
// hypercall) and vmcall (normal guest hypercall).
func MeasureTable3() ([]TransitionCost, error) {
	const iters = 64

	// EMC + TDCALL on an Erebor TD world.
	w, err := NewWorld(WorldConfig{Mode: kernel.ModeErebor, MemMB: 64})
	if err != nil {
		return nil, err
	}
	c := w.Core()

	emc := measure(w, func() {
		for i := 0; i < iters; i++ {
			if err := w.Mon.EMCNop(c); err != nil {
				panic(err)
			}
		}
	}) / iters

	// The syscall and tdcall rows are native-CVM measurements (Table 3
	// compares raw transitions; Erebor's extra interposition shows up in
	// Fig 8, not here).
	nat, err := NewWorld(WorldConfig{Mode: kernel.ModeNative, MemMB: 32})
	if err != nil {
		return nil, err
	}
	td := measure(nat, func() {
		for i := 0; i < iters; i++ {
			if _, tr := nat.Core().TDCall(tdx.LeafVMCall, []uint64{tdx.VMCallHLT}); tr != nil {
				panic(tr)
			}
		}
	}) / iters

	sys, err := measureSyscall(nat)
	if err != nil {
		return nil, err
	}

	// vmcall on a plain (non-TD) guest.
	physN := mem.NewPhysical(8 << 20)
	mN := cpu.NewMachine(physN, 1, false)
	host := tdx.NewHost()
	start := mN.Clock.Now()
	for i := 0; i < iters; i++ {
		tdx.HypercallNormalGuest(mN.Cores[0], host, tdx.VMCallHLT, nil)
	}
	vm := (mN.Clock.Now() - start) / iters

	rows := []TransitionCost{
		{Name: "EMC", Cycles: emc},
		{Name: "SYSCALL", Cycles: sys},
		{Name: "TDCALL", Cycles: td},
		{Name: "VMCALL", Cycles: vm},
	}
	for i := range rows {
		rows[i].RelEMC = float64(rows[i].Cycles) / float64(emc)
	}
	return rows, nil
}

// measureSyscall times an empty getpid round trip, excluding scheduler
// dispatch, on a fresh native world (the syscall itself is identical in
// both modes; Erebor adds interposition measured separately in Fig 8).
func measureSyscall(w *World) (uint64, error) {
	const iters = 64
	var cycles uint64
	err := runTask(w, "SYSCALL", func(e *kernel.Env) {
		start := w.M.Clock.Now()
		for i := 0; i < iters; i++ {
			e.Syscall(abi.SysGetpid)
		}
		cycles = (w.M.Clock.Now() - start) / iters
	})
	return cycles, err
}

// runTask runs fn as one task to its exit. It fails, naming the table row
// the task measures for, when the task cannot spawn or exits uncleanly.
func runTask(w *World, row string, fn func(e *kernel.Env)) error {
	t, err := w.K.Spawn(row, mem.OwnerTaskBase, fn)
	if err != nil {
		return fmt.Errorf("%s row (%s): %w", row, w.Mode, err)
	}
	w.K.Schedule()
	if t.ExitReason != "" {
		return fmt.Errorf("%s row (%s): %s", row, w.Mode, t.ExitReason)
	}
	return nil
}

func measure(w *World, fn func()) uint64 {
	start := w.M.Clock.Now()
	fn()
	return w.M.Clock.Now() - start
}

// PrivOpCost is one cell pair of Table 4.
type PrivOpCost struct {
	Name   string
	Native uint64
	Erebor uint64
}

// Ratio is Erebor/Native.
func (p PrivOpCost) Ratio() float64 { return float64(p.Erebor) / float64(p.Native) }

// MeasureTable4 measures the privileged-operation costs of Table 4 in both
// modes: MMU (PTE write), CR (CR0 write), SMAP (user-copy window), IDT
// (vector update), MSR (IA32_LSTAR-class write), GHCI (tdreport).
func MeasureTable4() ([]PrivOpCost, error) {
	const iters = 32
	nat, err := NewWorld(WorldConfig{Mode: kernel.ModeNative, MemMB: 64})
	if err != nil {
		return nil, err
	}
	ere, err := NewWorld(WorldConfig{Mode: kernel.ModeErebor, MemMB: 64})
	if err != nil {
		return nil, err
	}
	nc, ec := nat.Core(), ere.Core()

	var rows []PrivOpCost

	// MMU: leaf PTE update. Native: raw table write through the kernel's
	// own tables; Erebor: EMCProtectUser on a mapped page.
	var natMMU, ereMMU uint64
	if err := runTask(nat, "MMU", func(e *kernel.Env) {
		va := e.Mmap(4096, true, false)
		e.Touch(va, 1, true)
		start := nat.M.Clock.Now()
		for i := 0; i < iters; i++ {
			e.T.P.AS.Tables().Update(va, func(p paging.PTE) paging.PTE { return p })
		}
		natMMU = (nat.M.Clock.Now() - start) / iters
	}); err != nil {
		return nil, err
	}
	if err := runTask(ere, "MMU", func(e *kernel.Env) {
		va := e.Mmap(4096, true, false)
		e.Touch(va, 1, true)
		start := ere.M.Clock.Now()
		for i := 0; i < iters; i++ {
			if err := ere.Mon.EMCProtectUser(ec, e.T.P.AS.ASID, va, monitor.MapFlags{Writable: true}); err != nil {
				panic(err)
			}
		}
		ereMMU = (ere.M.Clock.Now() - start) / iters
	}); err != nil {
		return nil, err
	}
	rows = append(rows, PrivOpCost{"MMU", natMMU, ereMMU})

	// CR: rewrite CR0 with the same protected value.
	natCR := measure(nat, func() {
		for i := 0; i < iters; i++ {
			if tr := nc.WriteCR(cpu.CR0, cpu.CR0WP); tr != nil {
				panic(tr)
			}
		}
	}) / iters
	ereCR := measure(ere, func() {
		for i := 0; i < iters; i++ {
			if err := ere.Mon.EMCWriteCR(ec, cpu.CR0, cpu.CR0WP); err != nil {
				panic(err)
			}
		}
	}) / iters
	rows = append(rows, PrivOpCost{"CR", natCR, ereCR})

	// SMAP: stac/clac window (native) vs monitor-emulated zero-byte user
	// copy (Erebor).
	natSMAP := measure(nat, func() {
		for i := 0; i < iters; i++ {
			if tr := nc.STAC(); tr != nil {
				panic(tr)
			}
			if tr := nc.CLAC(); tr != nil {
				panic(tr)
			}
		}
	}) / iters
	// Prepare a mapped user page, then measure the monitor-emulated copy
	// window from kernel context (where copy_from_user runs).
	var asid monitor.ASID
	var va paging.Addr
	if err := runTask(ere, "SMAP", func(e *kernel.Env) {
		va = e.Mmap(4096, true, false)
		e.Touch(va, 1, true)
		asid = e.T.P.AS.ASID
	}); err != nil {
		return nil, err
	}
	var b [1]byte
	ereSMAP := measure(ere, func() {
		for i := 0; i < iters; i++ {
			if err := ere.Mon.EMCUserCopy(ec, asid, monitor.CopyFromUser, uint64(va), b[:]); err != nil {
				panic(err)
			}
		}
	}) / iters
	rows = append(rows, PrivOpCost{"SMAP", natSMAP, ereSMAP})

	// IDT: vector handler update.
	dummy := func(*cpu.Core, *cpu.Trap) {}
	natIDT := measure(nat, func() {
		for i := 0; i < iters; i++ {
			idt := nc.IDT()
			idt.Set(cpu.VecDevice, dummy)
			if tr := nc.LIDT(idt); tr != nil {
				panic(tr)
			}
		}
	}) / iters
	ereIDT := measure(ere, func() {
		for i := 0; i < iters; i++ {
			if err := ere.Mon.EMCSetVector(ec, cpu.VecDevice, dummy); err != nil {
				panic(err)
			}
		}
	}) / iters
	rows = append(rows, PrivOpCost{"IDT", natIDT, ereIDT})

	// MSR: APIC-class MSR write (IA32_LSTAR itself is monitor-owned; the
	// kernel's remaining MSR traffic goes through the allow-list).
	natMSR := measure(nat, func() {
		for i := 0; i < iters; i++ {
			if tr := nc.WriteMSR(cpu.MSRAPICTPR, 0); tr != nil {
				panic(tr)
			}
		}
	}) / iters
	ereMSR := measure(ere, func() {
		for i := 0; i < iters; i++ {
			if err := ere.Mon.EMCWriteMSR(ec, cpu.MSRAPICTPR, 0); err != nil {
				panic(err)
			}
		}
	}) / iters
	rows = append(rows, PrivOpCost{"MSR", natMSR, ereMSR})

	// GHCI: tdcall.tdreport (attestation digest generation).
	natGHCI := measure(nat, func() {
		for i := 0; i < iters; i++ {
			if _, tr := nc.TDCall(tdx.LeafTDReport, nil); tr != nil {
				panic(tr)
			}
		}
	}) / iters
	ereGHCI := func() uint64 {
		var rd [tdx.ReportDataSize]byte
		start := ere.M.Clock.Now()
		for i := 0; i < iters; i++ {
			if _, err := ere.Mon.IssueQuote(ec, rd); err != nil {
				panic(err)
			}
		}
		return (ere.M.Clock.Now() - start) / iters
	}()
	// IssueQuote includes the EMC-equivalent monitor entry; report it as
	// the tdcall+gate cost (signing is host-side in the evaluation).
	rows = append(rows, PrivOpCost{"GHCI", natGHCI, ereGHCI})

	return rows, nil
}
