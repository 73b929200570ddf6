package kernel_test

import (
	"runtime"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/abi"
	"github.com/asterisc-release/erebor-go/internal/cpu"
	"github.com/asterisc-release/erebor-go/internal/harness"
	"github.com/asterisc-release/erebor-go/internal/kernel"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/metrics"
	"github.com/asterisc-release/erebor-go/internal/paging"
	"github.com/asterisc-release/erebor-go/internal/prof"
)

// The trap contract: a task's syscalls and faults are serviced for it
// wherever the kernel runs them, and what the task observes — which calls
// reach the kernel, what they return, how a failure ends — is the same.

// TestTrapKillSkipsDeferredSyscall: a killed task unwinds its deferred
// calls, and a deferred syscall among them never reaches the kernel —
// whether its own fault killed it or the kernel was closed while the task
// was parked between slices.
func TestTrapKillSkipsDeferredSyscall(t *testing.T) {
	bothModes(t, func(t *testing.T, w *harness.World) {
		var before uint64
		tk, err := w.K.Spawn("deferrer", mem.OwnerTaskBase, func(e *kernel.Env) {
			defer e.Syscall(abi.SysGetpid)
			e.Syscall(abi.SysGetpid)
			before = e.K.Stats.Syscalls
			e.Touch(paging.Addr(0x6666_0000), 1, false)
			t.Error("task resumed after a wild access")
		})
		if err != nil {
			t.Fatal(err)
		}
		w.K.Schedule()
		if tk.State != kernel.TaskZombie || tk.ExitCode != 139 {
			t.Fatalf("task state=%v code=%d reason=%q, want a 139 exit", tk.State, tk.ExitCode, tk.ExitReason)
		}
		if got := w.K.Stats.Syscalls; got != before {
			t.Fatalf("Stats.Syscalls = %d after the kill, %d before the fault: the deferred syscall ran", got, before)
		}

		parked, err := w.K.Spawn("parked", mem.OwnerTaskBase, func(e *kernel.Env) {
			defer e.Syscall(abi.SysGetpid)
			for {
				e.YieldCPU()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if !w.K.StepOne() || parked.State != kernel.TaskRunnable {
			t.Fatalf("task did not park: state %v (%s)", parked.State, parked.ExitReason)
		}
		before = w.K.Stats.Syscalls
		w.Close()
		if got := w.K.Stats.Syscalls; got != before {
			t.Fatalf("Stats.Syscalls %d -> %d across Close: the deferred syscall ran", before, got)
		}
	})
}

// trapPanic is the value the test's syscall handler panics with.
type trapPanic struct{ n int }

// TestTrapHandlerPanicReachesScheduler: a panic in the kernel's handler is
// the kernel's failure, not the task's, so it propagates out of Schedule
// with its value instead of ending the task.
func TestTrapHandlerPanicReachesScheduler(t *testing.T) {
	bothModes(t, func(t *testing.T, w *harness.World) {
		boom := func(*cpu.Core, *cpu.Trap) { panic(trapPanic{7}) }
		if w.Mon != nil {
			if err := w.Mon.EMCSetSyscallEntry(w.K.Core(), boom); err != nil {
				t.Fatal(err)
			}
		} else {
			// Native: the kernel owns the IDT, so the test loads its own
			// table on every core.
			idt := cpu.NewIDT()
			idt.Set(cpu.VecSyscall, boom)
			for _, c := range w.M.Cores {
				if tr := c.LIDT(idt); tr != nil {
					t.Fatal(tr)
				}
			}
		}
		tk, err := w.K.Spawn("panicker", mem.OwnerTaskBase, func(e *kernel.Env) {
			e.Syscall(abi.SysGetpid)
			t.Error("syscall returned from a panicking handler")
		})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		got := func() (r any) {
			defer func() { r = recover() }()
			w.K.Schedule()
			return nil
		}()
		if got != (trapPanic{7}) {
			t.Fatalf("Schedule recovered %v, want trapPanic{7}; task state=%v reason=%q", got, tk.State, tk.ExitReason)
		}
		if tk.State == kernel.TaskZombie {
			t.Fatalf("the handler's panic ended the task: %q", tk.ExitReason)
		}
	})
}

// pfPages is the span of one lat_pagefault op.
const pfPages = 64

// faultRoundTripWorld boots a 64 MB Erebor world with the submission ring
// on and spawns a task that runs warm lat_pagefault ops: it opens a
// 64-page file, runs one op and ends its first slice, then runs ops more
// ops and exits. Each op maps the file, faults every page in and unmaps it.
// With profiled set, a cycle profiler records every slice, the warm-up
// included, inside one attribution window the caller closes; it is
// returned (nil otherwise).
func faultRoundTripWorld(tb testing.TB, ops int, profiled bool) (*harness.World, *kernel.Task, *prof.Profiler) {
	tb.Helper()
	w, err := harness.NewWorld(harness.WorldConfig{Mode: kernel.ModeErebor, MemMB: 64})
	if err != nil {
		tb.Fatal(err)
	}
	w.Mon.RingMMU = true
	var p *prof.Profiler
	if profiled {
		p = prof.New(w.Attr)
		w.M.AttachProfiler(p)
		p.Start()
		w.Attr.Switch(metrics.NoTenant, "lat_pagefault", 0)
	}
	const path = "/bench/pffile"
	w.K.VFS().Create(path, make([]byte, pfPages*mem.PageSize))
	op := func(e *kernel.Env, fd uint64) {
		va := e.MmapFile(fd, pfPages*mem.PageSize)
		for pg := 0; pg < pfPages; pg++ {
			e.Touch(va+paging.Addr(pg*mem.PageSize), 1, false)
		}
		e.Munmap(va, pfPages*mem.PageSize)
	}
	tk, err := w.K.Spawn("lat-pagefault", mem.OwnerTaskBase, func(e *kernel.Env) {
		scratch := e.Mmap(mem.PageSize, true, false)
		e.WriteMem(scratch, []byte(path))
		fd := e.Syscall(abi.SysOpen, uint64(scratch), uint64(len(path)))
		if abi.IsError(fd) {
			e.Fatal(1, "open failed")
		}
		op(e, fd)
		e.YieldCPU()
		for i := 0; i < ops; i++ {
			op(e, fd)
		}
	})
	if err != nil {
		tb.Fatal(err)
	}
	if !w.K.StepOne() || tk.State != kernel.TaskRunnable {
		tb.Fatalf("warm-up slice: task state %v (%s)", tk.State, tk.ExitReason)
	}
	return w, tk, p
}

// TestChargeTicksIndependentOfSplit: a task sees one timer tick per quantum
// of compute however it splits that compute across Charge calls, so timer
// ticks (Table 6's counts, reclaim's ticks) never depend on call sizes.
func TestChargeTicksIndependentOfSplit(t *testing.T) {
	const total = 8 * kernel.TimerQuantum
	for _, calls := range []uint64{1, 4, 8, 16} {
		w, err := harness.NewWorld(harness.WorldConfig{Mode: kernel.ModeNative, MemMB: 64})
		if err != nil {
			t.Fatal(err)
		}
		before := w.K.Stats.TimerTicks
		tk, err := w.K.Spawn("compute", mem.OwnerTaskBase, func(e *kernel.Env) {
			for i := uint64(0); i < calls; i++ {
				e.Charge(total / calls)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		w.K.Schedule()
		if tk.ExitReason != "" {
			t.Fatal(tk.ExitReason)
		}
		if got := w.K.Stats.TimerTicks - before; got != 8 {
			t.Errorf("8 quanta charged in %d calls of %d cycles saw %d timer ticks, want 8", calls, total/calls, got)
		}
		w.Close()
	}
}

// TestFaultRoundTripAllocs is the host allocation budget of the fault
// path: one warm lat_pagefault op (mmap, 64 faults, munmap) makes at most
// two heap allocations per faulted page.
func TestFaultRoundTripAllocs(t *testing.T) {
	w, tk, _ := faultRoundTripWorld(t, 1, false)
	if got, budget := opAllocs(t, w, tk), uint64(2*pfPages); got > budget {
		t.Fatalf("one lat_pagefault op made %d allocations, budget %d", got, budget)
	}
}

// TestProfiledFaultRoundTripAllocs holds a warm lat_pagefault op under the
// cycle profiler to the untraced budget: once the warm-up has made the
// op's frame nodes, frames and leaf charges move along the calling-context
// tree and add to counters, building no stack string. The profile still
// conserves against the window's attribution.
func TestProfiledFaultRoundTripAllocs(t *testing.T) {
	w, tk, p := faultRoundTripWorld(t, 1, true)
	if got, budget := opAllocs(t, w, tk), uint64(2*pfPages); got > budget {
		t.Fatalf("one profiled lat_pagefault op made %d allocations, budget %d", got, budget)
	}
	w.Attr.Switch(metrics.NoTenant, "", 0)
	p.Stop()
	if bad := p.CheckConservation(w.Met); len(bad) > 0 {
		t.Fatalf("profile does not conserve: %v", bad)
	}
	if p.Total() == 0 {
		t.Fatal("the profiler recorded nothing")
	}
}

// opAllocs runs the world's remaining op and returns the heap allocations
// it made.
func opAllocs(t *testing.T, w *harness.World, tk *kernel.Task) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w.K.Schedule()
	runtime.ReadMemStats(&after)
	if tk.ExitReason != "" {
		t.Fatal(tk.ExitReason)
	}
	return after.Mallocs - before.Mallocs
}

// BenchmarkFaultRoundTrip times warm lat_pagefault ops: mmap a 64-page
// file, fault every page in through the submission ring, munmap.
func BenchmarkFaultRoundTrip(b *testing.B) { benchFaultRoundTrip(b, false) }

// BenchmarkFaultRoundTripProfiled times the same ops with the cycle
// profiler attached.
func BenchmarkFaultRoundTripProfiled(b *testing.B) { benchFaultRoundTrip(b, true) }

func benchFaultRoundTrip(b *testing.B, profiled bool) {
	w, tk, _ := faultRoundTripWorld(b, b.N, profiled)
	b.ReportAllocs()
	b.ResetTimer()
	w.K.Schedule()
	b.StopTimer()
	if tk.ExitReason != "" {
		b.Fatal(tk.ExitReason)
	}
}
