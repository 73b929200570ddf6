package kernel_test

import (
	"testing"

	"github.com/asterisc-release/erebor-go/internal/abi"
	"github.com/asterisc-release/erebor-go/internal/harness"
	"github.com/asterisc-release/erebor-go/internal/kernel"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/paging"
)

func bothModes(t *testing.T, fn func(t *testing.T, w *harness.World)) {
	t.Helper()
	for _, mode := range []kernel.Mode{kernel.ModeNative, kernel.ModeErebor} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			w, err := harness.NewWorld(harness.WorldConfig{Mode: mode, MemMB: 64})
			if err != nil {
				t.Fatal(err)
			}
			fn(t, w)
		})
	}
}

func TestSignalDelivery(t *testing.T) {
	bothModes(t, func(t *testing.T, w *harness.World) {
		caught := []int{}
		tk, err := w.K.Spawn("sig", mem.OwnerTaskBase, func(e *kernel.Env) {
			e.Sigaction(10, func(he *kernel.Env, sig int) { caught = append(caught, sig) })
			e.Sigaction(12, func(he *kernel.Env, sig int) { caught = append(caught, sig) })
			self := e.Syscall(abi.SysGetpid)
			e.Syscall(abi.SysKill, self, 10)
			e.Syscall(abi.SysKill, self, 12)
			e.Syscall(abi.SysKill, self, 15) // no handler installed
		})
		if err != nil {
			t.Fatal(err)
		}
		w.K.Schedule()
		if tk.ExitReason != "" {
			t.Fatal(tk.ExitReason)
		}
		if len(caught) != 2 || caught[0] != 10 || caught[1] != 12 {
			t.Fatalf("caught %v", caught)
		}
	})
}

func TestFutexBlockAndWake(t *testing.T) {
	bothModes(t, func(t *testing.T, w *harness.World) {
		sequence := ""
		tk, err := w.K.Spawn("futex", mem.OwnerTaskBase, func(e *kernel.Env) {
			word := e.Mmap(4096, true, false)
			e.WriteMem(word, []byte{1, 0, 0, 0})
			e.SpawnThread("waiter", func(te *kernel.Env) {
				sequence += "W"
				// The wake's return value crosses the slice switch.
				if ret := te.Syscall(abi.SysFutex, uint64(word), kernel.FutexWait, 1); ret != 0 {
					t.Errorf("woken futex wait returned %#x, want 0", ret)
				}
				sequence += "R" // resumed after wake
			})
			e.YieldCPU() // let the waiter block
			sequence += "M"
			e.WriteMem(word, []byte{0, 0, 0, 0})
			woken := e.Syscall(abi.SysFutex, uint64(word), kernel.FutexWake, 1)
			if woken != 1 {
				t.Errorf("woke %d waiters", woken)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		w.K.Schedule()
		if tk.ExitReason != "" {
			t.Fatal(tk.ExitReason)
		}
		if sequence != "WMR" {
			t.Fatalf("sequence %q", sequence)
		}
		// Wait with mismatched value returns EAGAIN immediately.
		tk2, _ := w.K.Spawn("nomatch", mem.OwnerTaskBase, func(e *kernel.Env) {
			word := e.Mmap(4096, true, false)
			e.Touch(word, 4, true)
			ret := e.Syscall(abi.SysFutex, uint64(word), kernel.FutexWait, 7)
			if !abi.IsError(ret) || abi.Err(ret) != abi.EAGAINNo {
				t.Errorf("mismatched futex wait: %#x", ret)
			}
		})
		w.K.Schedule()
		if tk2.ExitReason != "" {
			t.Fatal(tk2.ExitReason)
		}
		// A signal wakes a blocked waiter, whose wait returns EAGAIN.
		interrupted := false
		tk3, _ := w.K.Spawn("signaller", mem.OwnerTaskBase, func(e *kernel.Env) {
			word := e.Mmap(4096, true, false)
			e.WriteMem(word, []byte{1, 0, 0, 0})
			waiter := e.SpawnThread("sleeper", func(te *kernel.Env) {
				ret := te.Syscall(abi.SysFutex, uint64(word), kernel.FutexWait, 1)
				if !abi.IsError(ret) || abi.Err(ret) != abi.EAGAINNo {
					t.Errorf("signalled futex wait returned %#x, want EAGAIN", ret)
				}
				interrupted = true
			})
			e.YieldCPU() // let the waiter block
			if ret := e.Syscall(abi.SysKill, uint64(waiter), 10); ret != 0 {
				t.Errorf("kill returned %#x", ret)
			}
		})
		w.K.Schedule()
		if tk3.ExitReason != "" {
			t.Fatal(tk3.ExitReason)
		}
		if !interrupted {
			t.Fatal("signalled waiter never resumed")
		}
	})
}

func TestMprotectEnforced(t *testing.T) {
	bothModes(t, func(t *testing.T, w *harness.World) {
		tk, err := w.K.Spawn("prot", mem.OwnerTaskBase, func(e *kernel.Env) {
			va := e.Mmap(4096, true, false)
			e.WriteMem(va, []byte("rw data"))
			if ret := e.Syscall(abi.SysMprotect, uint64(va), 4096, 0); abi.IsError(ret) {
				t.Errorf("mprotect errno %d", abi.Err(ret))
				return
			}
			// Reads still fine.
			var b [7]byte
			e.ReadMem(va, b[:])
			if string(b[:]) != "rw data" {
				t.Errorf("read after mprotect: %q", b)
			}
			// Writes now kill the task (write to read-only VMA).
			e.WriteMem(va, []byte("x"))
			t.Error("write to read-only mapping continued")
		})
		if err != nil {
			t.Fatal(err)
		}
		w.K.Schedule()
		if tk.State != kernel.TaskZombie || tk.ExitCode != 139 {
			t.Fatalf("task state=%v code=%d reason=%s", tk.State, tk.ExitCode, tk.ExitReason)
		}
	})
}

func TestMunmapFreesFrames(t *testing.T) {
	bothModes(t, func(t *testing.T, w *harness.World) {
		var before, during, after uint64
		tk, err := w.K.Spawn("unmap", mem.OwnerTaskBase, func(e *kernel.Env) {
			before = w.Phys.AllocatedFrames()
			va := e.Mmap(8*4096, true, false)
			e.Touch(va, 8*4096, true)
			during = w.Phys.AllocatedFrames()
			e.Munmap(va, 8*4096)
			after = w.Phys.AllocatedFrames()
		})
		if err != nil {
			t.Fatal(err)
		}
		w.K.Schedule()
		if tk.ExitReason != "" {
			t.Fatal(tk.ExitReason)
		}
		if during < before+8 {
			t.Fatalf("touch allocated %d frames", during-before)
		}
		if after >= during {
			t.Fatalf("munmap freed nothing (%d -> %d)", during, after)
		}
	})
}

func TestBrkGrowsHeap(t *testing.T) {
	bothModes(t, func(t *testing.T, w *harness.World) {
		tk, err := w.K.Spawn("brk", mem.OwnerTaskBase, func(e *kernel.Env) {
			old := e.Brk(64 * 1024)
			e.WriteMem(old, []byte("heap via brk"))
			var b [12]byte
			e.ReadMem(old, b[:])
			if string(b[:]) != "heap via brk" {
				t.Errorf("brk heap readback %q", b)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		w.K.Schedule()
		if tk.ExitReason != "" {
			t.Fatal(tk.ExitReason)
		}
	})
}

func TestSegfaultOnWildAccess(t *testing.T) {
	bothModes(t, func(t *testing.T, w *harness.World) {
		tk, _ := w.K.Spawn("wild", mem.OwnerTaskBase, func(e *kernel.Env) {
			var b [8]byte
			e.ReadMem(paging.Addr(0x6666_0000), b[:])
		})
		w.K.Schedule()
		if tk.ExitCode != 139 {
			t.Fatalf("wild access exit code %d (%s)", tk.ExitCode, tk.ExitReason)
		}
	})
}

func TestNetSyscalls(t *testing.T) {
	bothModes(t, func(t *testing.T, w *harness.World) {
		w.Host.NetIn = append(w.Host.NetIn, []byte("from the wire"))
		tk, err := w.K.Spawn("net", mem.OwnerTaskBase, func(e *kernel.Env) {
			buf := e.Mmap(4096, true, false)
			e.WriteMem(buf, []byte("outbound"))
			if ret := e.Syscall(abi.SysSend, uint64(buf), 8); abi.IsError(ret) {
				t.Errorf("send errno %d", abi.Err(ret))
			}
			n := e.Syscall(abi.SysRecv, uint64(buf), 4096)
			if abi.IsError(n) || n != 13 {
				t.Errorf("recv = %d", int64(n))
				return
			}
			got := make([]byte, n)
			e.ReadMem(buf, got)
			if string(got) != "from the wire" {
				t.Errorf("recv data %q", got)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		w.K.Schedule()
		if tk.ExitReason != "" {
			t.Fatal(tk.ExitReason)
		}
		if len(w.Host.NetOut) != 1 || string(w.Host.NetOut[0]) != "outbound" {
			t.Fatalf("host NetOut %q", w.Host.NetOut)
		}
	})
}

func TestReclaimEvictsFileBackedPages(t *testing.T) {
	bothModes(t, func(t *testing.T, w *harness.World) {
		w.K.ReclaimPerTick = 4
		data := make([]byte, 32*4096)
		for i := range data {
			data[i] = byte(i / 4096)
		}
		w.K.VFS().Create("/big", data)
		var refaults uint64
		tk, err := w.K.Spawn("reclaim", mem.OwnerTaskBase, func(e *kernel.Env) {
			scratch := e.Mmap(4096, true, false)
			e.WriteMem(scratch, []byte("/big"))
			fd := e.Syscall(abi.SysOpen, uint64(scratch), 4)
			va := e.MmapFile(fd, len(data))
			e.K.RegisterReclaimable(e.T.P, va, va+paging.Addr(len(data)))
			pfBefore := e.K.Stats.PageFaults
			// Touch everything once, then keep re-reading while ticks evict.
			for round := 0; round < 40; round++ {
				for p := 0; p < 32; p++ {
					var b [1]byte
					e.ReadMem(va+paging.Addr(p*4096), b[:])
					if b[0] != byte(p) {
						t.Errorf("page %d content lost after reclaim: %d", p, b[0])
						return
					}
				}
				e.Charge(kernel.TimerQuantum / 4)
			}
			refaults = e.K.Stats.PageFaults - pfBefore
		})
		if err != nil {
			t.Fatal(err)
		}
		w.K.Schedule()
		if tk.ExitReason != "" {
			t.Fatal(tk.ExitReason)
		}
		if refaults <= 32 {
			t.Fatalf("no reclaim-driven re-faults (%d faults total)", refaults)
		}
	})
}
