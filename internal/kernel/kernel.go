// Package kernel simulates the CVM guest operating system: tasks and
// scheduling, syscalls, demand paging, fork, an in-memory VFS, signals, and
// GHCI-backed proxy networking. It runs in two modes:
//
//   - Native: the kernel is fully privileged (the paper's "Native CVM"
//     baseline). It owns its page tables, IDT, CRs and MSRs and issues
//     tdcalls directly.
//   - Erebor: the kernel is deprivileged. Every sensitive operation
//     (Table 2) is delegated to EREBOR-MONITOR through EMCs, all its
//     vectors are interposed by the monitor's gates, and SMAP forces user
//     copies through the monitor.
//
// The same kernel logic drives both modes through the privOps interface,
// so Native-vs-Erebor comparisons measure exactly the delegation cost.
package kernel

import (
	"fmt"

	"github.com/asterisc-release/erebor-go/internal/cpu"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/metrics"
	"github.com/asterisc-release/erebor-go/internal/monitor"
	"github.com/asterisc-release/erebor-go/internal/paging"
	"github.com/asterisc-release/erebor-go/internal/tdx"
	"github.com/asterisc-release/erebor-go/internal/trace"
)

// Mode selects the privilege configuration.
type Mode int

const (
	// ModeNative is a stock CVM kernel (baseline).
	ModeNative Mode = iota
	// ModeErebor is the deprivileged kernel under EREBOR-MONITOR.
	ModeErebor
)

func (m Mode) String() string {
	if m == ModeNative {
		return "native"
	}
	return "erebor"
}

// TimerQuantum is the scheduler tick period in cycles (1 ms at 2.1 GHz).
const TimerQuantum = 2_100_000

// Stats aggregates kernel-side event counts for the evaluation harness.
type Stats struct {
	Syscalls        uint64
	PageFaults      uint64
	TimerTicks      uint64
	ContextSwitches uint64
	Forks           uint64
	Signals         uint64
	VEExits         uint64
}

// Kernel is the simulated guest OS.
type Kernel struct {
	M    *cpu.Machine
	Mode Mode
	Mon  *monitor.Monitor // nil in native mode
	TDX  *tdx.Module

	priv privOps
	// reqs is the scratch every mapping-change list is built in before
	// its one priv.Submit call, and frames the frames munmap frees once
	// their unmaps applied. One list is in flight at a time, so a warm
	// call allocates nothing.
	reqs   []monitor.RingReq
	frames []mem.Frame

	idt *cpu.IDT // native mode only

	tasks   map[Pid]*Task
	runq    []*Task
	current *Task
	nextPid Pid

	vfs *VFS

	// Erebor-device emulation for the LibOS-only ablation (native mode
	// kernel backs /dev/erebor with plain kernel queues — the paper's
	// DebugFS stand-in).
	devEmuIn  [][]byte
	devEmuOut [][]byte

	sliceEnd uint64

	// SMP dispatch state: the core currently executing a dispatched task,
	// and the round-robin cursor for core selection (see nextCore).
	curCore *cpu.Core
	rrCore  int

	// Syscall plumbing that cannot travel through registers in a Go
	// simulation: fork/clone child functions and signal handler closures.
	pendingForkFn     func(e *Env)
	pendingThreadName string
	pendingSigHandler func(e *Env, sig int)
	wantResched       bool

	futexQ map[uint64][]*Task

	// ReclaimPerTick configures memory-pressure reclaim: pages evicted per
	// timer tick from registered reclaimable regions (0 = off).
	ReclaimPerTick int
	reclaimRegions []*reclaimRegion
	reclaimNext    int

	// sharedIOFrames is the pool of CVM-shared frames used by the network
	// proxy path.
	sharedIO []mem.Frame

	// Rec is the optional flight recorder shared with the monitor (nil =
	// tracing disabled; hooks cost one nil compare).
	Rec *trace.Recorder

	// Met is the shared telemetry registry (nil-safe; the harness wires the
	// world-wide registry here). Recording never charges the virtual clock.
	Met *metrics.Registry

	// Attr is the machine's execution context (New copies Machine.Attr);
	// when it names a tenant, scheduler dispatch cycles are attributed per
	// tenant.
	Attr *metrics.Attr

	Stats Stats
}

// Config for kernel construction.
type Config struct {
	Machine *cpu.Machine
	Mode    Mode
	Monitor *monitor.Monitor // required for ModeErebor
	TDX     *tdx.Module
}

// New builds and boots a kernel. In Erebor mode the monitor must already
// have booted and verified/loaded the kernel image; New performs the
// post-load initialization the loaded kernel's entry point would run
// (registering vectors and the syscall entry via EMCs). In native mode the
// kernel claims the hardware interfaces directly.
func New(cfg Config) (*Kernel, error) {
	k := &Kernel{
		M:      cfg.Machine,
		Attr:   cfg.Machine.Attr,
		Mode:   cfg.Mode,
		Mon:    cfg.Monitor,
		TDX:    cfg.TDX,
		tasks:  make(map[Pid]*Task),
		vfs:    NewVFS(),
		futexQ: make(map[uint64][]*Task),
	}
	switch cfg.Mode {
	case ModeErebor:
		if cfg.Monitor == nil {
			return nil, fmt.Errorf("kernel: Erebor mode requires a booted monitor")
		}
		k.priv = &ereborPriv{k: k, mon: cfg.Monitor}
		if err := k.bootErebor(); err != nil {
			return nil, err
		}
	case ModeNative:
		k.priv = &nativePriv{k: k}
		if err := k.bootNative(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("kernel: unknown mode %d", cfg.Mode)
	}
	return k, nil
}

// curCore is the core the scheduler is currently dispatching on (nil when
// no dispatch is in flight). Kernel code that needs "the" CPU during a
// dispatch must run on that core, not hardcode core 0.
//
// core returns the executing core: the dispatch core when set, else the
// boot/control core 0 (boot, spawn, and server-side control paths).
func (k *Kernel) core() *cpu.Core {
	if k.curCore != nil {
		return k.curCore
	}
	return k.M.Cores[0]
}

// Core exposes the executing core to other packages (sandbox plumbing).
func (k *Kernel) Core() *cpu.Core { return k.core() }

// nextCore picks the dispatch core for the next scheduling step: a fixed
// round-robin over the machine's cores on the virtual clock, so SMP
// interleaving is deterministic.
func (k *Kernel) nextCore() *cpu.Core {
	c := k.M.Cores[k.rrCore%len(k.M.Cores)]
	k.rrCore++
	return c
}

// bootErebor registers the kernel's handlers with the monitor via EMCs.
func (k *Kernel) bootErebor() error {
	c := k.core()
	if err := k.Mon.EMCSetSyscallEntry(c, k.syscallEntry); err != nil {
		return err
	}
	for _, v := range []uint8{cpu.VecTimer, cpu.VecIPI, cpu.VecDevice} {
		if err := k.Mon.EMCSetVector(c, v, k.interruptHandler); err != nil {
			return err
		}
	}
	for _, v := range []uint8{cpu.VecPF, cpu.VecGP, cpu.VecUD, cpu.VecVE, cpu.VecCP} {
		if err := k.Mon.EMCSetVector(c, v, k.exceptionHandler); err != nil {
			return err
		}
	}
	k.Mon.KillNotify = k.onSandboxKilled
	return nil
}

// bootNative claims the hardware directly: own IDT, CRs, MSRs, kernel page
// tables with a direct map. Every core is brought up identically — a
// shootdown IPI or a dispatch may land on any of them.
func (k *Kernel) bootNative() error {
	np := k.priv.(*nativePriv)
	if err := np.buildKernelTables(); err != nil {
		return err
	}
	k.idt = cpu.NewIDT()
	k.idt.Set(cpu.VecSyscall, k.syscallEntry)
	for _, v := range []uint8{cpu.VecTimer, cpu.VecIPI, cpu.VecDevice} {
		k.idt.Set(v, k.interruptHandler)
	}
	for _, v := range []uint8{cpu.VecPF, cpu.VecGP, cpu.VecUD, cpu.VecVE, cpu.VecCP} {
		k.idt.Set(v, k.exceptionHandler)
	}
	for _, c := range k.M.Cores {
		if t := c.LIDT(k.idt); t != nil {
			return t
		}
		if t := c.WriteCR(cpu.CR0, cpu.CR0WP); t != nil {
			return t
		}
		// A stock kernel still enables SMEP/SMAP (standard hardening); it
		// does not enable PKS/CET for itself.
		if t := c.WriteCR(cpu.CR4, cpu.CR4SMEP|cpu.CR4SMAP); t != nil {
			return t
		}
		if t := c.WriteCR(cpu.CR3, uint64(np.kernelTables.Root.Base())); t != nil {
			return t
		}
		if t := c.WriteMSR(cpu.MSRLSTAR, 0xFFFF_8000_0010_0000); t != nil {
			return t
		}
	}
	return nil
}

// VFS returns the kernel's filesystem (workload setup).
func (k *Kernel) VFS() *VFS { return k.vfs }

// onSandboxKilled terminates the task hosting a killed sandbox.
func (k *Kernel) onSandboxKilled(id monitor.SandboxID, reason string) {
	for _, t := range k.tasks {
		if t.P.Sandbox == id && t.State != TaskZombie {
			t.exitLocked(128, "sandbox killed: "+reason)
		}
	}
}

// SpawnSandboxed creates a process and registers its address space as an
// EREBOR-SANDBOX with the given confined-memory budget. In native mode
// (LibOS-only ablation) the process is spawned without a sandbox and the
// Erebor device is kernel-emulated.
func (k *Kernel) SpawnSandboxed(name string, owner mem.Owner, budgetPages uint64, fn func(e *Env)) (*Task, monitor.SandboxID, error) {
	t, err := k.Spawn(name, owner, fn)
	if err != nil {
		return nil, 0, err
	}
	if k.Mode != ModeErebor {
		return t, 0, nil
	}
	sbid, err := k.Mon.EMCCreateSandbox(k.core(), t.P.AS.ASID, budgetPages)
	if err != nil {
		return nil, 0, err
	}
	t.P.Sandbox = sbid
	return t, sbid, nil
}

// SnapshotSandbox freezes a booted sandbox into an immutable fork template
// and tears down the hosting task (the sandbox identity is retired by the
// snapshot; the template owns its frames from here on). The caller keeps
// ownership of the address space and destroys it when convenient.
func (k *Kernel) SnapshotSandbox(t *Task, name string) (monitor.TemplateID, error) {
	if k.Mode != ModeErebor {
		return 0, fmt.Errorf("kernel: sandbox snapshot requires Erebor mode")
	}
	if t.P.Sandbox == 0 {
		return 0, fmt.Errorf("kernel: task %q hosts no sandbox", t.Name)
	}
	tid, err := k.Mon.EMCSnapshotSandbox(k.core(), t.P.Sandbox, name)
	if err != nil {
		return 0, err
	}
	// The sandbox identity died with the snapshot; drop the binding before
	// the exit path so no stale EMCSandboxEnd fires against it.
	t.P.Sandbox = 0
	if t.State != TaskZombie {
		t.exitLocked(0, "snapshotted into template")
	}
	return tid, nil
}

// ForkSandboxed spawns a process whose sandbox is instantiated copy-on-write
// from a snapshot template: the new address space adopts the template's
// confined image shared read-only, and pages are copied lazily on first
// write. fn supplies the child's behavior (Go closures cannot be cloned from
// the template's task; the memory and cost effects are what the fork models).
func (k *Kernel) ForkSandboxed(name string, owner mem.Owner, tid monitor.TemplateID, fn func(e *Env)) (*Task, monitor.SandboxID, error) {
	if k.Mode != ModeErebor {
		return nil, 0, fmt.Errorf("kernel: sandbox fork requires Erebor mode")
	}
	t, err := k.Spawn(name, owner, fn)
	if err != nil {
		return nil, 0, err
	}
	sbid, err := k.Mon.EMCForkSandbox(k.core(), t.P.AS.ASID, tid)
	if err != nil {
		t.exitLocked(127, "sandbox fork failed")
		return nil, 0, err
	}
	t.P.Sandbox = sbid
	return t, sbid, nil
}

// DestroyTemplate releases a fork template with no live forks.
func (k *Kernel) DestroyTemplate(tid monitor.TemplateID) error {
	if k.Mode != ModeErebor {
		return fmt.Errorf("kernel: templates require Erebor mode")
	}
	return k.Mon.EMCDestroyTemplate(k.core(), tid)
}

// KillTask terminates a task from the scheduler side with a typed reason
// (server-driven teardown of a session worker). The task's sandbox, if any,
// is ended through the monitor so its memory is scrubbed and released.
func (k *Kernel) KillTask(t *Task, code int, reason string) {
	if t.P.Sandbox != 0 && k.Mode == ModeErebor {
		_ = k.Mon.EMCSandboxEnd(k.core(), t.P.Sandbox)
	}
	t.exitLocked(code, reason)
}

// AllocSharedIO converts n frames from the shared-io region to CVM-shared
// for the proxy/network path.
func (k *Kernel) AllocSharedIO(n int) error {
	c := k.core()
	for i := 0; i < n; i++ {
		f, err := k.M.Phys.AllocRegion(monitor.RegionSharedIO, mem.OwnerDevice)
		if err != nil {
			return err
		}
		if err := k.priv.MapGPA(c, f, true); err != nil {
			return err
		}
		k.sharedIO = append(k.sharedIO, f)
	}
	return nil
}

// KernelDirectWrite is an adversary hook for the C3 security tests, which
// use it to show that PKS protects page-table and monitor memory. It writes
// physical memory through the direct map as kernel code would, on the real
// CPU store path.
func (k *Kernel) KernelDirectWrite(f mem.Frame, off int, data []byte) *cpu.Trap {
	c := k.core()
	prevRing := c.Ring
	c.SetRing(0)
	defer c.SetRing(prevRing)
	va := monitor.DirectMapAddr(f) + paging.Addr(off)
	return c.Store(va, data)
}

// KernelDirectRead is an adversary hook for the C3 security tests: the
// load counterpart of KernelDirectWrite.
func (k *Kernel) KernelDirectRead(f mem.Frame, off int, data []byte) *cpu.Trap {
	c := k.core()
	prevRing := c.Ring
	c.SetRing(0)
	defer c.SetRing(prevRing)
	va := monitor.DirectMapAddr(f) + paging.Addr(off)
	return c.Load(va, data)
}
