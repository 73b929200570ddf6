package harness

import (
	"runtime"
	"testing"
	"time"

	"github.com/asterisc-release/erebor-go/internal/abi"
	"github.com/asterisc-release/erebor-go/internal/kernel"
	"github.com/asterisc-release/erebor-go/internal/mem"
)

func bothModes(t *testing.T, fn func(t *testing.T, w *World)) {
	t.Helper()
	for _, mode := range []kernel.Mode{kernel.ModeNative, kernel.ModeErebor} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			w, err := NewWorld(WorldConfig{Mode: mode, MemMB: 64})
			if err != nil {
				t.Fatalf("NewWorld(%v): %v", mode, err)
			}
			fn(t, w)
		})
	}
}

func TestWorldBoots(t *testing.T) {
	bothModes(t, func(t *testing.T, w *World) {
		if w.K == nil {
			t.Fatal("no kernel")
		}
	})
}

func TestSpawnSyscallRoundTrip(t *testing.T) {
	bothModes(t, func(t *testing.T, w *World) {
		var gotPid uint64
		task, err := w.K.Spawn("hello", mem.OwnerTaskBase, func(e *kernel.Env) {
			gotPid = e.Syscall(abi.SysGetpid)
		})
		if err != nil {
			t.Fatalf("Spawn: %v", err)
		}
		w.K.Schedule()
		if task.State != kernel.TaskZombie {
			t.Fatalf("task did not finish: state=%v reason=%q", task.State, task.ExitReason)
		}
		if task.ExitReason != "" {
			t.Fatalf("task failed: %s", task.ExitReason)
		}
		if gotPid != uint64(task.Pid) {
			t.Fatalf("getpid returned %d, want %d", gotPid, task.Pid)
		}
	})
}

func TestMmapTouchReadWrite(t *testing.T) {
	bothModes(t, func(t *testing.T, w *World) {
		var readBack []byte
		tk, err := w.K.Spawn("mmap", mem.OwnerTaskBase, func(e *kernel.Env) {
			base := e.Mmap(3*4096, true, false)
			msg := []byte("hello erebor")
			e.WriteMem(base+4096, msg)
			buf := make([]byte, len(msg))
			e.ReadMem(base+4096, buf)
			readBack = buf
		})
		if err != nil {
			t.Fatalf("Spawn: %v", err)
		}
		w.K.Schedule()
		if tk.ExitReason != "" {
			t.Fatalf("task failed: %s", tk.ExitReason)
		}
		if string(readBack) != "hello erebor" {
			t.Fatalf("read back %q", readBack)
		}
		if w.K.Stats.PageFaults == 0 {
			t.Fatal("expected demand-paging faults")
		}
	})
}

func TestFileReadWriteSyscalls(t *testing.T) {
	bothModes(t, func(t *testing.T, w *World) {
		w.K.VFS().Create("/data/input.txt", []byte("the quick brown fox"))
		var got string
		tk, err := w.K.Spawn("file", mem.OwnerTaskBase, func(e *kernel.Env) {
			scratch := e.Mmap(4096, true, false)
			path := []byte("/data/input.txt")
			e.WriteMem(scratch, path)
			fd := e.Syscall(abi.SysOpen, uint64(scratch), uint64(len(path)))
			if abi.IsError(fd) {
				e.Exit(2)
			}
			buf := e.Mmap(4096, true, false)
			n := e.Syscall(abi.SysRead, fd, uint64(buf), 19)
			out := make([]byte, n)
			e.ReadMem(buf, out)
			got = string(out)
			e.Syscall(abi.SysClose, fd)
		})
		if err != nil {
			t.Fatalf("Spawn: %v", err)
		}
		w.K.Schedule()
		if tk.ExitReason != "" || tk.ExitCode != 0 {
			t.Fatalf("task failed: code=%d reason=%s", tk.ExitCode, tk.ExitReason)
		}
		if got != "the quick brown fox" {
			t.Fatalf("read %q", got)
		}
	})
}

func TestForkCopiesAddressSpace(t *testing.T) {
	bothModes(t, func(t *testing.T, w *World) {
		var childSaw []byte
		parentDone := false
		tk, err := w.K.Spawn("forker", mem.OwnerTaskBase, func(e *kernel.Env) {
			base := e.Mmap(2*4096, true, false)
			e.WriteMem(base, []byte("inherited"))
			childPid := e.Fork(func(ce *kernel.Env) {
				buf := make([]byte, 9)
				ce.ReadMem(base, buf)
				childSaw = buf
			})
			if childPid == 0 || abi.IsError(uint64(childPid)) {
				e.Exit(3)
			}
			// Parent overwrites its copy; the child must still see the old
			// value (separate address spaces).
			e.WriteMem(base, []byte("corrupted"))
			parentDone = true
		})
		if err != nil {
			t.Fatalf("Spawn: %v", err)
		}
		w.K.Schedule()
		if tk.ExitReason != "" || tk.ExitCode != 0 {
			t.Fatalf("parent failed: code=%d reason=%s", tk.ExitCode, tk.ExitReason)
		}
		if !parentDone {
			t.Fatal("parent did not finish")
		}
		if string(childSaw) != "inherited" {
			t.Fatalf("child saw %q, want %q", childSaw, "inherited")
		}
		if w.K.Stats.Forks != 1 {
			t.Fatalf("forks = %d", w.K.Stats.Forks)
		}
	})
}

func TestThreadsAndFutex(t *testing.T) {
	bothModes(t, func(t *testing.T, w *World) {
		sum := 0
		tk, err := w.K.Spawn("threads", mem.OwnerTaskBase, func(e *kernel.Env) {
			for i := 0; i < 4; i++ {
				i := i
				e.SpawnThread("worker", func(te *kernel.Env) {
					te.Charge(1000)
					sum += i + 1
				})
			}
			// Let workers run.
			for i := 0; i < 16; i++ {
				e.YieldCPU()
			}
		})
		if err != nil {
			t.Fatalf("Spawn: %v", err)
		}
		w.K.Schedule()
		if tk.ExitReason != "" {
			t.Fatalf("task failed: %s", tk.ExitReason)
		}
		if sum != 10 {
			t.Fatalf("threads ran sum=%d, want 10", sum)
		}
	})
}

func TestEreborRejectsUninstrumentedKernel(t *testing.T) {
	w, err := NewWorld(WorldConfig{Mode: kernel.ModeErebor, MemMB: 64})
	if err != nil {
		t.Fatal(err)
	}
	img := kernel.BuildKernelImage(kernel.ImageOptions{Instrumented: false})
	if _, err := w.Mon.LoadKernel(img); err == nil {
		t.Fatal("monitor accepted an uninstrumented kernel image")
	}
}

func TestCPUIDThroughVE(t *testing.T) {
	bothModes(t, func(t *testing.T, w *World) {
		var vendor [4]uint64
		tk, err := w.K.Spawn("cpuid", mem.OwnerTaskBase, func(e *kernel.Env) {
			vendor = e.CPUID(0)
		})
		if err != nil {
			t.Fatal(err)
		}
		w.K.Schedule()
		if tk.ExitReason != "" {
			t.Fatalf("task failed: %s", tk.ExitReason)
		}
		if vendor[1] != 0x756e6547 { // "Genu"
			t.Fatalf("cpuid vendor = %#x", vendor[1])
		}
	})
}

// TestWorldCloseReleasesParkedTasks parks a task between slices, closes
// its world and drops it: the task's goroutine must exit, and the world
// and its physical memory must then be collected.
func TestWorldCloseReleasesParkedTasks(t *testing.T) {
	before := runtime.NumGoroutine()
	worldFreed, memFreed := make(chan struct{}), make(chan struct{})
	func() {
		w, err := NewWorld(WorldConfig{Mode: kernel.ModeErebor, MemMB: 64})
		if err != nil {
			t.Fatal(err)
		}
		// The task holds its world, as a service's code does, and never
		// finishes on its own.
		tk, err := w.K.Spawn("parked", mem.OwnerTaskBase, func(e *kernel.Env) {
			for w.K != nil {
				e.YieldCPU()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if !w.K.StepOne() || tk.State != kernel.TaskRunnable {
			t.Fatalf("task did not park: state %v (%s)", tk.State, tk.ExitReason)
		}
		runtime.SetFinalizer(w, func(*World) { close(worldFreed) })
		runtime.SetFinalizer(w.Phys, func(*mem.Physical) { close(memFreed) })
		w.Close()
		w.Close()
	}()
	// A finalizer runs on its own goroutine after the collection that
	// finds its object unreachable.
	freed := func(c chan struct{}) bool {
		select {
		case <-c:
			return true
		case <-time.After(50 * time.Millisecond):
			return false
		}
	}
	for gcs := 1; ; gcs++ {
		runtime.GC()
		if freed(worldFreed) && freed(memFreed) && runtime.NumGoroutine() <= before {
			return
		}
		if gcs == 5 {
			t.Fatalf("after %d collections: world freed %v, memory freed %v, %d goroutines (%d before boot)",
				gcs, freed(worldFreed), freed(memFreed), runtime.NumGoroutine(), before)
		}
	}
}
