package kernel_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/abi"
	"github.com/asterisc-release/erebor-go/internal/harness"
	"github.com/asterisc-release/erebor-go/internal/kernel"
	"github.com/asterisc-release/erebor-go/internal/libos"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/metrics"
	"github.com/asterisc-release/erebor-go/internal/monitor"
	"github.com/asterisc-release/erebor-go/internal/paging"
	"github.com/asterisc-release/erebor-go/internal/sandbox"
)

// The submission contract: every user-mapping change the kernel makes is
// one call into its privileged backend, and only the Erebor backend picks
// per-request EMCs, one batch EMC or the submission ring, from the
// monitor's BatchMMU and RingMMU switches.

// mmuMode is one way the kernel's mapping changes reach the page tables.
type mmuMode struct {
	name        string
	mode        kernel.Mode
	batch, ring bool
}

var mmuModes = []mmuMode{
	{name: "native", mode: kernel.ModeNative},
	{name: "per-request", mode: kernel.ModeErebor},
	{name: "batch", mode: kernel.ModeErebor, batch: true},
	{name: "ring", mode: kernel.ModeErebor, ring: true},
}

func newMMUWorld(t *testing.T, m mmuMode) *harness.World {
	t.Helper()
	w, err := harness.NewWorld(harness.WorldConfig{Mode: m.mode, MemMB: 64})
	if err != nil {
		t.Fatal(err)
	}
	if w.Mon != nil {
		w.Mon.BatchMMU, w.Mon.RingMMU = m.batch, m.ring
	}
	return w
}

// mmuCost is what one kernel operation cost the MMU: EMCs by gate kind,
// stored PTEs, committed ring drains and virtual cycles.
type mmuCost struct {
	emcs      string
	pteWrites uint64
	drains    uint64
	cycles    uint64
}

type mmuProbe struct {
	w         *harness.World
	emcs      map[string]uint64
	pteWrites uint64
	drains    uint64
	cycles    uint64
}

func startProbe(w *harness.World) *mmuProbe {
	p := &mmuProbe{w: w, cycles: w.M.Clock.Now(),
		drains: w.Met.Value(metrics.FamilyEMCRingDrains, metrics.KV("outcome", "committed"))}
	if w.Mon != nil {
		p.emcs = w.Mon.EMCByKind()
		p.pteWrites = w.Mon.Stats.PTEWrites
	}
	return p
}

func (p *mmuProbe) stop() mmuCost {
	w := p.w
	c := mmuCost{cycles: w.M.Clock.Now() - p.cycles,
		drains: w.Met.Value(metrics.FamilyEMCRingDrains, metrics.KV("outcome", "committed")) - p.drains}
	if w.Mon == nil {
		return c
	}
	c.pteWrites = w.Mon.Stats.PTEWrites - p.pteWrites
	var parts []string
	for kind, n := range w.Mon.EMCByKind() {
		if d := n - p.emcs[kind]; d > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", kind, d))
		}
	}
	slices.Sort(parts)
	c.emcs = strings.Join(parts, " ")
	return c
}

// TestSubmitEveryMode pins what one fault, a 4-page mprotect, a 4-page
// munmap and the fork of a 4-page parent cost in each mode: EMCs by gate
// kind, stored PTEs, ring drains and virtual cycles. Under the ring the
// fork fills its child in one drain; every other figure is the cost each
// call site had when it picked its own strategy.
func TestSubmitEveryMode(t *testing.T) {
	const span = 4 * mem.PageSize
	want := map[string]map[string]mmuCost{
		"native": {
			"fault":    {cycles: 1712},
			"mprotect": {cycles: 1496},
			"munmap":   {cycles: 1496},
			"fork":     {cycles: 31800},
		},
		"per-request": {
			"fault":    {emcs: "mmu=2", pteWrites: 2, cycles: 5516},
			"mprotect": {emcs: "mmu=4", pteWrites: 4, cycles: 7094},
			"munmap":   {emcs: "mmu=4", pteWrites: 4, cycles: 7094},
			"fork":     {emcs: "mmu=5", pteWrites: 4, cycles: 39463},
		},
		"batch": {
			"fault":    {emcs: "mmu=2", pteWrites: 2, cycles: 5516},
			"mprotect": {emcs: "mmu=4", pteWrites: 4, cycles: 7094},
			"munmap":   {emcs: "mmu=4", pteWrites: 4, cycles: 7094},
			"fork":     {emcs: "mmu=2", pteWrites: 4, cycles: 35791},
		},
		"ring": {
			"fault":    {emcs: "ring=1", pteWrites: 2, drains: 1, cycles: 4451},
			"mprotect": {emcs: "ring=1", pteWrites: 4, drains: 1, cycles: 3645},
			"munmap":   {emcs: "ring=1", pteWrites: 4, drains: 1, cycles: 3645},
			"fork":     {emcs: "mmu=1 ring=1", pteWrites: 4, drains: 1, cycles: 36014},
		},
	}
	for _, m := range mmuModes {
		t.Run(m.name, func(t *testing.T) {
			w := newMMUWorld(t, m)
			got := map[string]mmuCost{}
			tk, err := w.K.Spawn("mmu-ops", mem.OwnerTaskBase, func(e *kernel.Env) {
				va := e.Mmap(span, true, false)
				p := startProbe(w)
				e.Touch(va, 1, true)
				got["fault"] = p.stop()
				e.Touch(va, span, true)
				p = startProbe(w)
				if ret := e.Syscall(abi.SysMprotect, uint64(va), uint64(span), 0); ret != 0 {
					e.Fatal(2, "mprotect failed")
				}
				got["mprotect"] = p.stop()
				p = startProbe(w)
				if ret := e.Munmap(va, span); ret != 0 {
					e.Fatal(3, "munmap failed")
				}
				got["munmap"] = p.stop()
				va = e.Mmap(span, true, false)
				e.Touch(va, span, true)
				p = startProbe(w)
				e.Fork(func(*kernel.Env) {})
				got["fork"] = p.stop()
			})
			if err != nil {
				t.Fatal(err)
			}
			w.K.Schedule()
			if tk.ExitReason != "" {
				t.Fatal(tk.ExitReason)
			}
			for _, op := range []string{"fault", "mprotect", "munmap", "fork"} {
				if got[op] != want[m.name][op] {
					t.Errorf("%s: got %+v, want %+v", op, got[op], want[m.name][op])
				}
			}
		})
	}
}

// ringDepth is the histogram of drained submission-ring depths.
func ringDepth(w *harness.World) metrics.Histogram {
	return w.Met.Hist(metrics.FamilyEMCRingDepth)
}

func ringOps(w *harness.World, op monitor.MMUOp) uint64 {
	return w.Met.Value(metrics.FamilyEMCRingOps, metrics.KV("op", op.String()))
}

// TestSubmitForkRidesRing: with the ring on, a fork of a 48-page parent
// creates the child's address space with one mmu EMC and fills it in one
// drain of 48 maps, and the child reads the parent's bytes.
func TestSubmitForkRidesRing(t *testing.T) {
	const pages = 48
	w := newMMUWorld(t, mmuMode{mode: kernel.ModeErebor, ring: true})
	var fork mmuCost
	var maps, depth uint64
	var childSaw []byte
	tk, err := w.K.Spawn("forker", mem.OwnerTaskBase, func(e *kernel.Env) {
		va := e.Mmap(pages*mem.PageSize, true, false)
		for p := 0; p < pages; p++ {
			e.WriteMem(va+paging.Addr(p*mem.PageSize), []byte{byte(p + 1)})
		}
		probe, maps0, depth0 := startProbe(w), ringOps(w, monitor.OpMap), ringDepth(w).Sum
		e.Fork(func(ce *kernel.Env) {
			for p := 0; p < pages; p++ {
				var b [1]byte
				ce.ReadMem(va+paging.Addr(p*mem.PageSize), b[:])
				childSaw = append(childSaw, b[0])
			}
		})
		fork = probe.stop()
		maps, depth = ringOps(w, monitor.OpMap)-maps0, ringDepth(w).Sum-depth0
		e.YieldCPU()
	})
	if err != nil {
		t.Fatal(err)
	}
	w.K.Schedule()
	if tk.ExitReason != "" {
		t.Fatal(tk.ExitReason)
	}
	if fork.emcs != "mmu=1 ring=1" || fork.drains != 1 || maps != pages || depth != pages {
		t.Fatalf("fork: %+v, %d ring maps in %d drained entries; want mmu=1 ring=1, 1 drain of %d maps",
			fork, maps, depth, pages)
	}
	if fork.pteWrites != pages {
		t.Fatalf("fork stored %d PTEs, want %d", fork.pteWrites, pages)
	}
	if len(childSaw) != pages {
		t.Fatalf("child read %d pages, want %d", len(childSaw), pages)
	}
	for p, b := range childSaw {
		if b != byte(p+1) {
			t.Fatalf("child page %d reads %d, want %d", p, b, p+1)
		}
	}
}

// TestSubmitReclaimRidesRing: with the ring on, a reclaim tick's
// evictions from a sandbox's common region are ring reclaims, not
// per-page EMCs, and the common frames stay allocated: the monitor keeps
// the data, only the mapping goes.
func TestSubmitReclaimRidesRing(t *testing.T) {
	const pages = 16
	w := newMMUWorld(t, mmuMode{mode: kernel.ModeErebor, ring: true})
	w.K.ReclaimPerTick = 4
	data := make([]byte, pages*mem.PageSize)
	for i := range data {
		data[i] = byte(i/mem.PageSize + 1)
	}
	if err := sandbox.CreateCommon(w.K, "model", data); err != nil {
		t.Fatal(err)
	}
	var frames []mem.Frame
	var reclaims, reclaimEMCs uint64
	var freed []mem.Frame
	c, err := sandbox.Launch(w.K, sandbox.Spec{
		Name: "reclaimer", Owner: mem.OwnerTaskBase + 1,
		LibOS:   libos.Config{HeapPages: 16},
		Commons: []sandbox.CommonRef{{Name: "model"}},
		Main: func(c *sandbox.Container, os *libos.OS) {
			e := os.Env
			base := c.CommonVAs["model"]
			e.Touch(base, len(data), false)
			for p := 0; p < pages; p++ {
				f, ok := e.T.P.AS.Translate(base + paging.Addr(p*mem.PageSize))
				if !ok {
					t.Errorf("common page %d not mapped after the touch", p)
					return
				}
				frames = append(frames, f)
			}
			e.K.RegisterReclaimable(e.T.P, base, base+paging.Addr(len(data)))
			ops0, emcs0 := ringOps(w, monitor.OpReclaim), w.Mon.EMCByKind()["mmu"]
			for i := 0; i < 4; i++ {
				e.Charge(kernel.TimerQuantum)
			}
			reclaims = ringOps(w, monitor.OpReclaim) - ops0
			reclaimEMCs = w.Mon.EMCByKind()["mmu"] - emcs0
			for _, f := range frames {
				if m, err := w.M.Phys.Meta(f); err != nil || !m.Allocated {
					freed = append(freed, f)
				}
			}
			var b [1]byte
			e.ReadMem(base+paging.Addr((pages-1)*mem.PageSize), b[:])
			if b[0] != pages {
				t.Errorf("last common page reads %d after reclaim, want %d", b[0], pages)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	w.K.Schedule()
	if berr := c.BootErr(); berr != nil {
		t.Fatal(berr)
	}
	if c.Task.ExitReason != "" {
		t.Fatal(c.Task.ExitReason)
	}
	if reclaims == 0 {
		t.Fatal("no eviction rode the ring as a reclaim")
	}
	if reclaimEMCs != 0 {
		t.Fatalf("reclaim ticks made %d mmu EMCs, want 0 with the ring on", reclaimEMCs)
	}
	if len(freed) != 0 {
		t.Fatalf("reclaim freed common frames %v", freed)
	}
}

// TestSubmitFullRingDrains: a 200-page munmap under the ring drains when
// the 128-entry ring fills and once at the end (128 + 72), leaves no leaf
// and frees every frame.
func TestSubmitFullRingDrains(t *testing.T) {
	const pages = 200
	w := newMMUWorld(t, mmuMode{mode: kernel.ModeErebor, ring: true})
	var unmap mmuCost
	var depth metrics.Histogram
	var depthSum, left uint64
	var frames []mem.Frame
	tk, err := w.K.Spawn("unmapper", mem.OwnerTaskBase, func(e *kernel.Env) {
		va := e.Mmap(pages*mem.PageSize, true, false)
		e.Touch(va, pages*mem.PageSize, true)
		for p := 0; p < pages; p++ {
			if f, ok := e.T.P.AS.Translate(va + paging.Addr(p*mem.PageSize)); ok {
				frames = append(frames, f)
			}
		}
		probe, sum0 := startProbe(w), ringDepth(w).Sum
		if ret := e.Munmap(va, pages*mem.PageSize); ret != 0 {
			e.Fatal(3, "munmap failed")
		}
		unmap = probe.stop()
		depth = ringDepth(w)
		depthSum = depth.Sum - sum0
		for p := 0; p < pages; p++ {
			if _, ok := e.T.P.AS.Translate(va + paging.Addr(p*mem.PageSize)); ok {
				left++
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	w.K.Schedule()
	if tk.ExitReason != "" {
		t.Fatal(tk.ExitReason)
	}
	if len(frames) != pages {
		t.Fatalf("%d of %d pages faulted in", len(frames), pages)
	}
	if unmap.emcs != "ring=2" || unmap.drains != 2 || depthSum != pages || depth.Max != monitor.DefaultRingEntries {
		t.Fatalf("munmap: %+v, %d entries drained, deepest drain %d; want 2 drains of 128 + 72",
			unmap, depthSum, depth.Max)
	}
	if left != 0 {
		t.Fatalf("%d leaves left after munmap", left)
	}
	for _, f := range frames {
		if m, err := w.M.Phys.Meta(f); err != nil || m.Allocated {
			t.Fatalf("frame %d still allocated after munmap", f)
		}
	}
}
