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

	emc, err := perOp(w, "EMC", iters, func() error { return w.Mon.EMCNop(c) })
	if err != nil {
		return nil, err
	}

	// The syscall and tdcall rows are native-CVM measurements (Table 3
	// compares raw transitions; Erebor's extra interposition shows up in
	// Fig 8, not here).
	nat, err := NewWorld(WorldConfig{Mode: kernel.ModeNative, MemMB: 32})
	if err != nil {
		return nil, err
	}
	td, err := perOp(nat, "TDCALL", iters, func() error {
		_, tr := nat.Core().TDCall(tdx.LeafVMCall, []uint64{tdx.VMCallHLT})
		return trapErr(tr)
	})
	if err != nil {
		return nil, err
	}

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
	err := runTask(w, "SYSCALL", func(e *kernel.Env) (err error) {
		cycles, err = perOp(w, "SYSCALL", iters, func() error {
			e.Syscall(abi.SysGetpid)
			return nil
		})
		return err
	})
	return cycles, err
}

// runTask runs fn as one task to its exit. It fails, naming the table row
// the task measures for, when the task cannot spawn or exits uncleanly,
// and returns fn's own error otherwise.
func runTask(w *World, row string, fn func(e *kernel.Env) error) error {
	var fnErr error
	t, err := w.K.Spawn(row, mem.OwnerTaskBase, func(e *kernel.Env) { fnErr = fn(e) })
	if err != nil {
		return fmt.Errorf("%s row (%s): %w", row, w.Mode, err)
	}
	w.K.Schedule()
	if t.ExitReason != "" {
		return fmt.Errorf("%s row (%s): %s", row, w.Mode, t.ExitReason)
	}
	return fnErr
}

// perOp runs op iters times on w and returns the mean virtual cycles of
// one run. The first failing op ends the measurement with an error naming
// the table row.
func perOp(w *World, row string, iters uint64, op func() error) (uint64, error) {
	start := w.M.Clock.Now()
	for i := uint64(0); i < iters; i++ {
		if err := op(); err != nil {
			return 0, fmt.Errorf("%s row (%s): %w", row, w.Mode, err)
		}
	}
	return (w.M.Clock.Now() - start) / iters, nil
}

// trapErr returns tr as an error, and nil for no trap: a nil *cpu.Trap
// stored in an error would not compare equal to nil.
func trapErr(tr *cpu.Trap) error {
	if tr == nil {
		return nil
	}
	return tr
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
	if err := runTask(nat, "MMU", func(e *kernel.Env) (err error) {
		va := e.Mmap(4096, true, false)
		e.Touch(va, 1, true)
		natMMU, err = perOp(nat, "MMU", iters, func() error {
			return e.T.P.AS.Tables().Update(va, func(p paging.PTE) paging.PTE { return p })
		})
		return err
	}); err != nil {
		return nil, err
	}
	if err := runTask(ere, "MMU", func(e *kernel.Env) (err error) {
		va := e.Mmap(4096, true, false)
		e.Touch(va, 1, true)
		ereMMU, err = perOp(ere, "MMU", iters, func() error {
			return ere.Mon.EMCProtectUser(ec, e.T.P.AS.ASID, va, monitor.MapFlags{Writable: true})
		})
		return err
	}); err != nil {
		return nil, err
	}
	rows = append(rows, PrivOpCost{"MMU", natMMU, ereMMU})

	// Prepare a mapped user page for the SMAP row, then measure the
	// monitor-emulated copy window from kernel context (where
	// copy_from_user runs).
	var asid monitor.ASID
	var va paging.Addr
	if err := runTask(ere, "SMAP", func(e *kernel.Env) error {
		va = e.Mmap(4096, true, false)
		e.Touch(va, 1, true)
		asid = e.T.P.AS.ASID
		return nil
	}); err != nil {
		return nil, err
	}
	var b [1]byte
	var rd [tdx.ReportDataSize]byte
	dummy := func(*cpu.Core, *cpu.Trap) {}
	for _, r := range []struct {
		name           string
		native, erebor func() error
	}{
		// CR: rewrite CR0 with the same protected value.
		{"CR",
			func() error { return trapErr(nc.WriteCR(cpu.CR0, cpu.CR0WP)) },
			func() error { return ere.Mon.EMCWriteCR(ec, cpu.CR0, cpu.CR0WP) }},
		// SMAP: stac/clac window (native) vs monitor-emulated zero-byte
		// user copy (Erebor).
		{"SMAP",
			func() error {
				if tr := nc.STAC(); tr != nil {
					return tr
				}
				return trapErr(nc.CLAC())
			},
			func() error { return ere.Mon.EMCUserCopy(ec, asid, monitor.CopyFromUser, uint64(va), b[:]) }},
		// IDT: vector handler update.
		{"IDT",
			func() error {
				idt := nc.IDT()
				idt.Set(cpu.VecDevice, dummy)
				return trapErr(nc.LIDT(idt))
			},
			func() error { return ere.Mon.EMCSetVector(ec, cpu.VecDevice, dummy) }},
		// MSR: APIC-class MSR write (IA32_LSTAR itself is monitor-owned;
		// the kernel's remaining MSR traffic goes through the allow-list).
		{"MSR",
			func() error { return trapErr(nc.WriteMSR(cpu.MSRAPICTPR, 0)) },
			func() error { return ere.Mon.EMCWriteMSR(ec, cpu.MSRAPICTPR, 0) }},
		// GHCI: tdcall.tdreport (attestation digest generation). IssueQuote
		// includes the EMC-equivalent monitor entry; report it as the
		// tdcall+gate cost (signing is host-side in the evaluation).
		{"GHCI",
			func() error {
				_, tr := nc.TDCall(tdx.LeafTDReport, nil)
				return trapErr(tr)
			},
			func() error {
				_, err := ere.Mon.IssueQuote(ec, rd)
				return err
			}},
	} {
		natC, err := perOp(nat, r.name, iters, r.native)
		if err != nil {
			return nil, err
		}
		ereC, err := perOp(ere, r.name, iters, r.erebor)
		if err != nil {
			return nil, err
		}
		rows = append(rows, PrivOpCost{r.name, natC, ereC})
	}
	return rows, nil
}
