package harness

import (
	"fmt"

	"github.com/asterisc-release/erebor-go/internal/abi"
	"github.com/asterisc-release/erebor-go/internal/costs"
	"github.com/asterisc-release/erebor-go/internal/kernel"
	"github.com/asterisc-release/erebor-go/internal/libos"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/metrics"
	"github.com/asterisc-release/erebor-go/internal/monitor"
	"github.com/asterisc-release/erebor-go/internal/paging"
	"github.com/asterisc-release/erebor-go/internal/sandbox"
	"github.com/asterisc-release/erebor-go/internal/workloads"
)

// ScenarioConfig is one bar of Fig 9.
type ScenarioConfig string

const (
	// CfgNative is the unmodified process on a normal CVM (baseline).
	CfgNative ScenarioConfig = "native"
	// CfgLibOSOnly runs the app under the LibOS on a normal CVM.
	CfgLibOSOnly ScenarioConfig = "libos-only"
	// CfgErebor is the full system: monitor + sandbox + LibOS.
	CfgErebor ScenarioConfig = "erebor"
)

// AllConfigs in Fig 9 order.
var AllConfigs = []ScenarioConfig{CfgNative, CfgLibOSOnly, CfgErebor}

// ScenarioResult collects everything Fig 9 and Table 6 report about one run.
type ScenarioResult struct {
	Workload string
	Config   ScenarioConfig

	InitCycles uint64
	RunCycles  uint64
	Output     string

	// Event counts during the run phase.
	PageFaults    uint64 // kernel + monitor-handled common faults
	TimerTicks    uint64
	VEExits       uint64
	SandboxExits  uint64
	EMCs          uint64
	EMCCycles     uint64 // total cycles inside EMC gates
	EMCCyclesMMU  uint64 // mmu/cr/smap/sandbox kinds (memory isolation)
	EMCCyclesExit uint64 // io kind + interposition (exit protection)

	// Memory accounting.
	ConfinedBytes uint64
	CommonBytes   uint64
	PrivateModel  uint64 // bytes of replicated model (non-shared configs)

	// Hists holds the flight recorder's per-span latency histograms when
	// ScenarioOptions.Trace was set (nil otherwise).
	Hists map[string]metrics.Histogram
}

// RunSeconds converts the run phase to simulated seconds.
func (r *ScenarioResult) RunSeconds() float64 { return costs.CyclesToSeconds(r.RunCycles) }

// Rate returns events per simulated second of the run phase.
func (r *ScenarioResult) Rate(events uint64) float64 {
	return costs.PerSecond(events, r.RunCycles)
}

// ScenarioOptions tunes a run.
type ScenarioOptions struct {
	// ReclaimPerTick drives memory pressure (0 disables; the paper's
	// loaded-host behaviour corresponds to a small positive value).
	ReclaimPerTick int
	// CPUIDEvery fires a cpuid every N work items (0 disables).
	CPUIDEvery int
	MemMB      uint64
	// Trace attaches the flight recorder to the scenario's world and
	// returns its histograms in ScenarioResult.Hists.
	Trace bool
}

// DefaultScenarioOptions mirrors the loaded-host conditions of §9.2.
func DefaultScenarioOptions() ScenarioOptions {
	return ScenarioOptions{ReclaimPerTick: 8, CPUIDEvery: 2, MemMB: 160}
}

type phaseMarks struct {
	initDone uint64
	runDone  uint64
	output   []byte
	runErr   error
}

// RunScenario executes one workload under one configuration and returns
// the measured result.
func RunScenario(wl workloads.Workload, cfg ScenarioConfig, opt ScenarioOptions) (*ScenarioResult, error) {
	if opt.MemMB == 0 {
		opt.MemMB = 160
	}
	mode := kernel.ModeNative
	if cfg == CfgErebor {
		mode = kernel.ModeErebor
	}
	w, err := NewWorld(WorldConfig{Mode: mode, MemMB: opt.MemMB, Trace: opt.Trace})
	if err != nil {
		return nil, err
	}
	w.K.ReclaimPerTick = opt.ReclaimPerTick

	res := &ScenarioResult{Workload: wl.Name(), Config: cfg}
	common := wl.CommonData()
	input := wl.Input()
	res.CommonBytes = uint64(len(common))

	// Publish the shared dataset: a monitor common region under Erebor, a
	// host file otherwise.
	if common != nil {
		if err := sandbox.CreateCommon(w.K, wl.Name(), common); err != nil {
			return nil, err
		}
	}

	marks := &phaseMarks{}
	startCycles := w.M.Clock.Now()

	switch cfg {
	case CfgNative:
		if err := runNative(w, wl, common, input, opt, marks, res); err != nil {
			return nil, err
		}
	case CfgLibOSOnly, CfgErebor:
		if err := runContainer(w, wl, cfg, common, input, opt, marks, res); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("harness: unknown config %q", cfg)
	}
	if marks.runErr != nil {
		return nil, marks.runErr
	}

	res.InitCycles = marks.initDone - startCycles
	res.RunCycles = marks.runDone - marks.initDone
	res.Output = string(marks.output)
	res.Hists = w.Rec.Histograms()
	return res, nil
}

// syncNative models pthread synchronization: cheap atomics uncontended, a
// futex syscall round trip when contended.
func syncNative(e *kernel.Env, syncWord paging.Addr) func(bool) {
	return func(contended bool) {
		if !contended {
			e.Charge(25)
			return
		}
		e.Syscall(abi.SysFutex, uint64(syncWord), kernel.FutexWake, 8)
	}
}

// syncLibOS models the LibOS userspace spinlock barrier: uncontended CAS,
// busy-wait when contended (no syscalls — §6.2).
func syncLibOS(e *kernel.Env) func(bool) {
	return func(contended bool) {
		if !contended {
			e.Charge(costs.SpinlockUncontended)
			return
		}
		e.Charge(costs.SpinlockContendedSpin * 480)
	}
}

func runNative(w *World, wl workloads.Workload, common, input []byte,
	opt ScenarioOptions, marks *phaseMarks, res *ScenarioResult) error {

	if common != nil {
		res.PrivateModel = uint64(len(common))
	}
	w.K.VFS().Create("/srv/input", input)
	t, err := w.K.Spawn(wl.Name(), mem.OwnerTaskBase+1, func(e *kernel.Env) {
		clock := &w.M.Clock
		// --- init: map the model file, read the request ---
		var modelVA paging.Addr
		if common != nil {
			scratch := e.Mmap(4096, true, false)
			path := []byte("/common/" + wl.Name())
			e.WriteMem(scratch, path)
			fd := e.Syscall(abi.SysOpen, uint64(scratch), uint64(len(path)))
			if abi.IsError(fd) {
				marks.runErr = fmt.Errorf("native: open model: errno %d", abi.Err(fd))
				return
			}
			modelVA = e.MmapFile(fd, len(common))
			e.K.RegisterReclaimable(e.T.P, modelVA, modelVA+paging.Addr(len(common)))
			// Model load/validation pass (header + tensor index), as
			// llama.cpp and friends do before serving.
			hdr := len(common) / 20
			e.Touch(modelVA, hdr, false)
			e.Charge(uint64(hdr) / 8)
		}
		inBuf := readWholeFile(e, "/srv/input", len(input))
		if inBuf == nil {
			marks.runErr = fmt.Errorf("native: reading input failed")
			return
		}
		syncWord := e.Mmap(4096, true, false)
		e.Touch(syncWord, 4, true)
		marks.initDone = clock.Now()

		// --- run ---
		ctx := &workloads.Ctx{
			E: e, CommonVA: modelVA, Input: inBuf,
			Alloc:      func(n int) paging.Addr { return e.Mmap(n, true, false) },
			Spawn:      func(name string, fn func(*kernel.Env)) { e.SpawnThread(name, fn) },
			CPUIDEvery: opt.CPUIDEvery,
			Sync:       syncNative(e, syncWord),
		}
		marks.output = wl.Run(ctx)
		marks.runDone = clock.Now()
	})
	if err != nil {
		return err
	}
	preK := w.K.Stats
	w.K.Schedule()
	if t.ExitReason != "" {
		return fmt.Errorf("native run failed: %s", t.ExitReason)
	}
	res.PageFaults = w.K.Stats.PageFaults - preK.PageFaults
	res.TimerTicks = w.K.Stats.TimerTicks - preK.TimerTicks
	res.VEExits = w.K.Stats.VEExits - preK.VEExits
	return nil
}

// readWholeFile reads a VFS file into Go memory via real syscalls (the
// service's request-ingestion path).
func readWholeFile(e *kernel.Env, path string, size int) []byte {
	scratch := e.Mmap(4096, true, false)
	e.WriteMem(scratch, []byte(path))
	fd := e.Syscall(abi.SysOpen, uint64(scratch), uint64(len(path)))
	if abi.IsError(fd) {
		return nil
	}
	defer e.Syscall(abi.SysClose, fd)
	bufVA := e.Mmap(size+4096, true, false)
	got := e.Syscall(abi.SysRead, fd, uint64(bufVA), uint64(size))
	if abi.IsError(got) {
		return nil
	}
	out := make([]byte, got)
	e.ReadMem(bufVA, out)
	return out
}

func runContainer(w *World, wl workloads.Workload, cfg ScenarioConfig,
	common, input []byte, opt ScenarioOptions, marks *phaseMarks, res *ScenarioResult) error {

	heap := wl.HeapPages() + 16
	var commons []sandbox.CommonRef
	if common != nil {
		commons = append(commons, sandbox.CommonRef{Name: wl.Name()})
		if cfg == CfgLibOSOnly {
			res.PrivateModel = uint64(len(common))
		}
	}
	spec := sandbox.Spec{
		Name: wl.Name(), Owner: mem.OwnerTaskBase + 1,
		BudgetPages: heap + 64,
		LibOS:       libos.Config{HeapPages: heap, MaxThreads: wl.Threads()},
		Commons:     commons,
		Main: func(c *sandbox.Container, os *libos.OS) {
			e := os.Env
			clock := &w.M.Clock
			buf, n, err := os.ReceiveInput(len(input)+4096, 16)
			if err != nil {
				marks.runErr = fmt.Errorf("container input: %w", err)
				return
			}
			if n == 0 {
				marks.runErr = fmt.Errorf("container received no input")
				return
			}
			inBuf := make([]byte, n)
			e.ReadMem(buf, inBuf)
			if common != nil {
				base := c.CommonVAs[wl.Name()]
				e.K.RegisterReclaimable(e.T.P, base, base+paging.Addr(len(common)))
			}
			marks.initDone = clock.Now()

			ctx := &workloads.Ctx{
				E: e, CommonVA: c.CommonVAs[wl.Name()], Input: inBuf,
				Alloc: func(sz int) paging.Addr {
					va, err := os.Alloc(sz)
					if err != nil {
						// Heap exhaustion inside the sandbox must kill this
						// task through the typed Fatal path, not crash the
						// whole simulation.
						e.Fatal(137, "libos alloc: "+err.Error())
					}
					return va
				},
				Spawn:      func(name string, fn func(*kernel.Env)) { _ = os.SpawnThread(name, fn) },
				CPUIDEvery: opt.CPUIDEvery,
				Sync:       syncLibOS(e),
			}
			out := wl.Run(ctx)
			marks.output = out
			if err := os.SendOutputBytes(out); err != nil {
				marks.runErr = fmt.Errorf("container output: %w", err)
				return
			}
			marks.runDone = clock.Now()
		},
	}
	c, err := sandbox.Launch(w.K, spec)
	if err != nil {
		return err
	}

	// Deliver the client request (DebugFS-emulation path, §7).
	if cfg == CfgErebor {
		if err := w.Mon.QueueClientInput(c.ID, input); err != nil {
			return err
		}
	} else {
		w.K.DevEmuPush(input)
	}

	var preMon monSnapshot
	if w.Mon != nil {
		preMon = snapshotMonStats(w.Mon)
	}
	preK := w.K.Stats
	w.K.Schedule()
	if berr := c.BootErr(); berr != nil {
		return fmt.Errorf("container boot: %w", berr)
	}
	if c.Task.ExitReason != "" {
		return fmt.Errorf("container failed: %s", c.Task.ExitReason)
	}

	res.PageFaults = w.K.Stats.PageFaults - preK.PageFaults
	res.TimerTicks = w.K.Stats.TimerTicks - preK.TimerTicks
	res.VEExits = w.K.Stats.VEExits - preK.VEExits
	if w.Mon != nil {
		post := snapshotMonStats(w.Mon)
		res.EMCs = post.EMCs - preMon.EMCs
		res.SandboxExits = post.SandboxExits - preMon.SandboxExits
		for _, kind := range []string{"mmu", "cr", "smap", "sandbox", "msr", "idt"} {
			res.EMCCyclesMMU += post.CyclesByKind[kind] - preMon.CyclesByKind[kind]
		}
		res.EMCCyclesExit = (post.CyclesByKind["io"] - preMon.CyclesByKind["io"]) +
			(post.InterposeCycles - preMon.InterposeCycles)
		for k := range post.CyclesByKind {
			res.EMCCycles += post.CyclesByKind[k] - preMon.CyclesByKind[k]
		}
		if info, ok := c.Info(); ok {
			res.ConfinedBytes = info.ConfinedPages * mem.PageSize
			// VE exits handled by the monitor (cpuid emulation) are counted
			// in the machine's trap table.
		}
		res.VEExits = w.M.TrapCounts[20].Load() // total #VE deliveries
	}
	return nil
}

// monSnapshot pairs the scalar Stats with the per-kind breakdowns, which
// now live in the metrics registry rather than on Stats itself.
type monSnapshot struct {
	monitor.Stats
	EMCByKind    map[string]uint64
	CyclesByKind map[string]uint64
}

func snapshotMonStats(m *monitor.Monitor) monSnapshot {
	return monSnapshot{
		Stats:        m.Stats,
		EMCByKind:    m.EMCByKind(),
		CyclesByKind: m.EMCCyclesByKind(),
	}
}
