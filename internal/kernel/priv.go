package kernel

import (
	"fmt"

	"github.com/asterisc-release/erebor-go/internal/costs"
	"github.com/asterisc-release/erebor-go/internal/cpu"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/monitor"
	"github.com/asterisc-release/erebor-go/internal/paging"
	"github.com/asterisc-release/erebor-go/internal/tdx"
)

// AddrSpace is the kernel's handle on one user address space. In Erebor
// mode only the monitor can mutate it; the kernel may still *walk* it (PTP
// frames are kernel-readable, only write-protected).
type AddrSpace struct {
	ASID  monitor.ASID // 0 in native mode
	root  mem.Frame
	owner mem.Owner
	// tables is writable in native mode; in Erebor mode it is a walk-only
	// view used for translations.
	tables *paging.Tables
	// ring is the async EMC submission ring of this address space, created
	// lazily on the first enqueue when Monitor.RingMMU is on (Erebor only).
	ring *monitor.SubmitRing
}

// Tables exposes the walkable view of the address space (native kernels
// also mutate through it; under Erebor mutation requires EMCs).
func (as *AddrSpace) Tables() *paging.Tables { return as.tables }

// Translate resolves a user VA to its mapped frame.
func (as *AddrSpace) Translate(va paging.Addr) (mem.Frame, bool) {
	pte, _, f := as.tables.Walk(va)
	if f != nil || !pte.Is(paging.Present) {
		return 0, false
	}
	return pte.Frame(), true
}

// privOps abstracts the sensitive operations so the same kernel logic runs
// natively (direct instructions) and under Erebor (EMC delegation).
type privOps interface {
	CreateAS(c *cpu.Core, owner mem.Owner) (*AddrSpace, error)
	DestroyAS(c *cpu.Core, as *AddrSpace) error
	Map(c *cpu.Core, as *AddrSpace, va paging.Addr, f mem.Frame, w, x bool) error
	MapBatch(c *cpu.Core, as *AddrSpace, reqs []monitor.MapReq) error
	Unmap(c *cpu.Core, as *AddrSpace, va paging.Addr) error
	Protect(c *cpu.Core, as *AddrSpace, va paging.Addr, w, x bool) error
	SwitchTo(c *cpu.Core, as *AddrSpace) error
	UserCopy(c *cpu.Core, as *AddrSpace, dir monitor.CopyDir, va uint64, buf []byte) error
	MapGPA(c *cpu.Core, f mem.Frame, toShared bool) error
	VMCall(c *cpu.Core, sub uint64, args []uint64, frames []mem.Frame, payload []byte) ([]uint64, error)
	WriteMSR(c *cpu.Core, idx uint32, val uint64) error

	// RingActive reports whether the async MMU submission-ring path is on
	// (Erebor with Monitor.RingMMU; always false natively — native PTE
	// writes are already cheap, there is no crossing to amortize).
	RingActive() bool
	// RingEnqueue queues one MMU request on as's submission ring, draining
	// first if the ring is full. Only valid while RingActive().
	RingEnqueue(c *cpu.Core, as *AddrSpace, req monitor.RingReq) error
	// RingDrain asks the monitor to consume as's queued requests under one
	// gate crossing. If the batched drain is refused, the requests are
	// replayed through the synchronous EMCs (per-op errors surface to the
	// caller exactly as on the non-ring path). No-op on an empty ring.
	RingDrain(c *cpu.Core, as *AddrSpace) error
}

// --- native implementation ----------------------------------------------------

type nativePriv struct {
	k            *Kernel
	kernelTables *paging.Tables
}

func (np *nativePriv) allocPTP() (mem.Frame, error) {
	return np.k.M.Phys.Alloc(mem.OwnerKernel)
}

func (np *nativePriv) chargePTE(mem.Addr, paging.PTE) {
	np.k.M.Clock.Charge(costs.NativePTEWrite)
}

func (np *nativePriv) buildKernelTables() error {
	t, err := paging.New(np.k.M.Phys, np.allocPTP)
	if err != nil {
		return err
	}
	np.kernelTables = t
	n := np.k.M.Phys.NumFrames()
	for f := mem.Frame(0); uint64(f) < n; f++ {
		leaf := (paging.Present | paging.Writable | paging.NX).WithFrame(f)
		if err := t.Map(monitor.DirectMapAddr(f), leaf); err != nil {
			return err
		}
	}
	t.OnPTEWrite = np.chargePTE
	return nil
}

func (np *nativePriv) CreateAS(c *cpu.Core, owner mem.Owner) (*AddrSpace, error) {
	t, err := paging.New(np.k.M.Phys, np.allocPTP)
	if err != nil {
		return nil, err
	}
	for i := 256; i < 512; i++ {
		a := mem.Addr(np.kernelTables.Root.Base()) + mem.Addr(i*8)
		e, err := paging.ReadPTE(np.k.M.Phys, a)
		if err != nil {
			return nil, err
		}
		if e.Is(paging.Present) {
			dst := mem.Addr(t.Root.Base()) + mem.Addr(i*8)
			if err := paging.WritePTE(np.k.M.Phys, dst, e); err != nil {
				return nil, err
			}
		}
	}
	t.OnPTEWrite = np.chargePTE
	return &AddrSpace{root: t.Root, owner: owner, tables: t}, nil
}

func (np *nativePriv) DestroyAS(c *cpu.Core, as *AddrSpace) error { return nil }

func nativeLeaf(f mem.Frame, w, x bool) paging.PTE {
	leaf := (paging.Present | paging.User).WithFrame(f)
	if w {
		leaf |= paging.Writable
	}
	if !x {
		leaf |= paging.NX
	}
	return leaf
}

// shootIfChanged invalidates a replaced translation on every core. Native
// kernels are responsible for their own TLB coherence; first-time installs
// and identical rewrites need no shootdown.
func (np *nativePriv) shootIfChanged(c *cpu.Core, as *AddrSpace, va paging.Addr, prev, next paging.PTE, walkFault *paging.Fault) {
	if walkFault == nil && prev.Is(paging.Present) && prev != next {
		np.k.M.Shootdown(c, as.tables.Root, paging.PageBase(va))
	}
}

func (np *nativePriv) Map(c *cpu.Core, as *AddrSpace, va paging.Addr, f mem.Frame, w, x bool) error {
	leaf := nativeLeaf(f, w, x)
	prev, _, walkFault := as.tables.Walk(paging.PageBase(va))
	if err := as.tables.Map(va, leaf); err != nil {
		return err
	}
	np.shootIfChanged(c, as, va, prev, leaf, walkFault)
	return nil
}

func (np *nativePriv) MapBatch(c *cpu.Core, as *AddrSpace, reqs []monitor.MapReq) error {
	for _, r := range reqs {
		if err := np.Map(c, as, r.VA, r.Frame, r.Flags.Writable, r.Flags.Exec); err != nil {
			return err
		}
	}
	return nil
}

func (np *nativePriv) Unmap(c *cpu.Core, as *AddrSpace, va paging.Addr) error {
	base := paging.PageBase(va)
	prev, _, walkFault := as.tables.Walk(base)
	if err := as.tables.Unmap(va); err != nil {
		return err
	}
	if walkFault == nil && prev.Is(paging.Present) {
		np.k.M.Shootdown(c, as.tables.Root, base)
	}
	return nil
}

func (np *nativePriv) Protect(c *cpu.Core, as *AddrSpace, va paging.Addr, w, x bool) error {
	var changed bool
	err := as.tables.Update(va, func(e paging.PTE) paging.PTE {
		ne := nativeLeaf(e.Frame(), w, x)
		changed = ne != e
		return ne
	})
	if err != nil {
		return err
	}
	if changed {
		np.k.M.Shootdown(c, as.tables.Root, paging.PageBase(va))
	}
	return nil
}

func (np *nativePriv) SwitchTo(c *cpu.Core, as *AddrSpace) error {
	root := np.kernelTables.Root
	if as != nil {
		root = as.tables.Root
	}
	if t := c.WriteCR(cpu.CR3, uint64(root.Base())); t != nil {
		return t
	}
	return nil
}

func (np *nativePriv) UserCopy(c *cpu.Core, as *AddrSpace, dir monitor.CopyDir, va uint64, buf []byte) error {
	if t := c.STAC(); t != nil {
		return t
	}
	defer func() {
		if t := c.CLAC(); t != nil {
			panic(t.Error())
		}
	}()
	off := 0
	for off < len(buf) {
		pte, _, fl := as.tables.Walk(paging.Addr(va))
		if fl != nil || !pte.Is(paging.Present|paging.User) {
			return fmt.Errorf("kernel: user page %#x not mapped", va)
		}
		if dir == monitor.CopyToUser && !pte.Is(paging.Writable) {
			return fmt.Errorf("kernel: user page %#x not writable", va)
		}
		pageOff := int(va & 0xFFF)
		n := len(buf) - off
		if n > mem.PageSize-pageOff {
			n = mem.PageSize - pageOff
		}
		pa := pte.Frame().Base() + mem.Addr(pageOff)
		var err error
		if dir == monitor.CopyToUser {
			err = np.k.M.Phys.WritePhys(pa, buf[off:off+n])
		} else {
			err = np.k.M.Phys.ReadPhys(pa, buf[off:off+n])
		}
		if err != nil {
			return err
		}
		np.k.M.Clock.Charge(costs.Copy(n))
		va += uint64(n)
		off += n
	}
	return nil
}

func (np *nativePriv) MapGPA(c *cpu.Core, f mem.Frame, toShared bool) error {
	_, t := c.TDCall(tdx.LeafMapGPA, []uint64{uint64(f), b64(toShared)})
	if t != nil {
		return t
	}
	return nil
}

func (np *nativePriv) VMCall(c *cpu.Core, sub uint64, args []uint64, frames []mem.Frame, payload []byte) ([]uint64, error) {
	if len(payload) > 0 {
		if err := np.k.TDX.StageSharedBuffer(frames, payload); err != nil {
			return nil, err
		}
	}
	ret, t := c.TDCall(tdx.LeafVMCall, append([]uint64{sub}, args...))
	if t != nil {
		return nil, t
	}
	return ret, nil
}

func (np *nativePriv) WriteMSR(c *cpu.Core, idx uint32, val uint64) error {
	if t := c.WriteMSR(idx, val); t != nil {
		return t
	}
	return nil
}

func (np *nativePriv) RingActive() bool { return false }

func (np *nativePriv) RingEnqueue(c *cpu.Core, as *AddrSpace, req monitor.RingReq) error {
	return fmt.Errorf("kernel: submission ring unavailable in native mode")
}

func (np *nativePriv) RingDrain(c *cpu.Core, as *AddrSpace) error { return nil }

// --- Erebor implementation -----------------------------------------------------

type ereborPriv struct {
	k   *Kernel
	mon *monitor.Monitor
}

func (ep *ereborPriv) CreateAS(c *cpu.Core, owner mem.Owner) (*AddrSpace, error) {
	asid, err := ep.mon.EMCCreateAS(c, owner)
	if err != nil {
		return nil, err
	}
	root, _ := ep.mon.ASRoot(asid)
	return &AddrSpace{
		ASID: asid, root: root, owner: owner,
		tables: &paging.Tables{Phys: ep.k.M.Phys, Root: root},
	}, nil
}

func (ep *ereborPriv) DestroyAS(c *cpu.Core, as *AddrSpace) error {
	return ep.mon.EMCDestroyAS(c, as.ASID)
}

func (ep *ereborPriv) Map(c *cpu.Core, as *AddrSpace, va paging.Addr, f mem.Frame, w, x bool) error {
	return ep.mon.EMCMapUser(c, as.ASID, va, f, monitor.MapFlags{Writable: w, Exec: x})
}

func (ep *ereborPriv) MapBatch(c *cpu.Core, as *AddrSpace, reqs []monitor.MapReq) error {
	if ep.mon.BatchMMU {
		return ep.mon.EMCMapUserBatch(c, as.ASID, reqs)
	}
	for _, r := range reqs {
		if err := ep.mon.EMCMapUser(c, as.ASID, r.VA, r.Frame, r.Flags); err != nil {
			return err
		}
	}
	return nil
}

func (ep *ereborPriv) Unmap(c *cpu.Core, as *AddrSpace, va paging.Addr) error {
	return ep.mon.EMCUnmapUser(c, as.ASID, va)
}

func (ep *ereborPriv) Protect(c *cpu.Core, as *AddrSpace, va paging.Addr, w, x bool) error {
	return ep.mon.EMCProtectUser(c, as.ASID, va, monitor.MapFlags{Writable: w, Exec: x})
}

func (ep *ereborPriv) SwitchTo(c *cpu.Core, as *AddrSpace) error {
	if as == nil {
		return ep.mon.EMCSwitchAS(c, 0)
	}
	return ep.mon.EMCSwitchAS(c, as.ASID)
}

func (ep *ereborPriv) UserCopy(c *cpu.Core, as *AddrSpace, dir monitor.CopyDir, va uint64, buf []byte) error {
	return ep.mon.EMCUserCopy(c, as.ASID, dir, va, buf)
}

func (ep *ereborPriv) MapGPA(c *cpu.Core, f mem.Frame, toShared bool) error {
	return ep.mon.EMCMapGPA(c, f, toShared)
}

func (ep *ereborPriv) VMCall(c *cpu.Core, sub uint64, args []uint64, frames []mem.Frame, payload []byte) ([]uint64, error) {
	return ep.mon.EMCVMCall(c, sub, args, frames, payload)
}

func (ep *ereborPriv) WriteMSR(c *cpu.Core, idx uint32, val uint64) error {
	return ep.mon.EMCWriteMSR(c, idx, val)
}

func (ep *ereborPriv) RingActive() bool { return ep.mon.RingMMU }

func (ep *ereborPriv) RingEnqueue(c *cpu.Core, as *AddrSpace, req monitor.RingReq) error {
	if !ep.mon.RingMMU {
		return fmt.Errorf("kernel: submission ring disabled")
	}
	if as.ring == nil {
		as.ring = monitor.NewSubmitRing(as.ASID, monitor.DefaultRingEntries)
	}
	if as.ring.Len() >= as.ring.Cap() {
		if err := ep.RingDrain(c, as); err != nil {
			return err
		}
	}
	// One enqueue: write the request into the shared ring, bump the head.
	ep.k.M.Clock.ChargeFrame("kernel/ring/submit", costs.EreborRingSubmit)
	if !as.ring.Push(req) {
		return fmt.Errorf("kernel: submission ring full after drain")
	}
	return nil
}

func (ep *ereborPriv) RingDrain(c *cpu.Core, as *AddrSpace) error {
	if as.ring == nil || as.ring.Len() == 0 {
		return nil
	}
	if err := ep.mon.EMCRingDrain(c, as.ring); err == nil {
		return nil
	}
	// The batched drain was refused (validation reject or commit rollback —
	// either way the monitor left the address space consistent). Replay the
	// entries through the synchronous EMCs so per-op errors surface exactly
	// as they would have without the ring.
	pending := as.ring.Pending()
	as.ring.Reset()
	for _, r := range pending {
		var err error
		switch r.Op {
		case monitor.OpMap:
			err = ep.mon.EMCMapUser(c, as.ASID, r.VA, r.Frame, r.Flags)
		case monitor.OpUnmap:
			err = ep.mon.EMCUnmapUser(c, as.ASID, r.VA)
		case monitor.OpProtect:
			err = ep.mon.EMCProtectUser(c, as.ASID, r.VA, r.Flags)
		case monitor.OpReclaim:
			err = ep.mon.EMCReclaimUser(c, as.ASID, r.VA)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func b64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
