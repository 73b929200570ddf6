package kernel

import (
	"fmt"

	"github.com/asterisc-release/erebor-go/internal/abi"
	"github.com/asterisc-release/erebor-go/internal/costs"
	"github.com/asterisc-release/erebor-go/internal/cpu"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/monitor"
	"github.com/asterisc-release/erebor-go/internal/paging"
)

// syscallEntry is the kernel's syscall dispatcher. Under Erebor, the
// monitor's interposition layer has already filtered sandbox exits before
// forwarding here.
func (k *Kernel) syscallEntry(c *cpu.Core, tr *cpu.Trap) {
	num := c.Regs.GPR[cpu.RAX]
	a1 := c.Regs.GPR[cpu.RDI]
	a2 := c.Regs.GPR[cpu.RSI]
	a3 := c.Regs.GPR[cpu.RDX]
	a4 := c.Regs.GPR[cpu.R10]
	c.Regs.GPR[cpu.RAX] = k.doSyscall(c, num, a1, a2, a3, a4)
}

func (k *Kernel) doSyscall(c *cpu.Core, num, a1, a2, a3, a4 uint64) uint64 {
	cur := k.current
	if cur == nil {
		return abi.Errno(abi.EINVALNo)
	}
	switch num {
	case abi.SysGetpid:
		return uint64(cur.Pid)
	case abi.SysGetppid:
		return uint64(cur.PPid)
	case abi.SysYield:
		k.wantResched = true
		return 0
	case abi.SysExit:
		cur.exitLocked(int(a1), "")
		return 0
	case abi.SysRead:
		return k.sysRead(c, cur, int(a1), a2, int(a3))
	case abi.SysWrite:
		return k.sysWrite(c, cur, int(a1), a2, int(a3))
	case abi.SysOpen:
		return k.sysOpen(c, cur, a1, int(a2))
	case abi.SysClose:
		return k.sysClose(cur, int(a1))
	case abi.SysStat:
		return k.sysStat(c, cur, a1, int(a2))
	case abi.SysMmap:
		return k.sysMmap(cur, a1, a2 != 0, a3 != 0, a4)
	case abi.SysMunmap:
		return k.sysMunmap(c, cur, paging.Addr(a1), a2)
	case abi.SysMprotect:
		return k.sysMprotect(c, cur, paging.Addr(a1), a2, a3&1 != 0, a3&2 != 0)
	case abi.SysBrk:
		return k.sysBrk(cur, int64(a1))
	case abi.SysIoctl:
		return k.sysIoctl(c, cur, a1, a2, a3, a4)
	case abi.SysFork:
		return k.sysFork(c, cur)
	case abi.SysClone:
		return k.sysClone(cur)
	case abi.SysFutex:
		return k.sysFutex(c, cur, a1, a2, a3)
	case abi.SysSigaction:
		return k.sysSigaction(cur, int(a1))
	case abi.SysKill:
		return k.sysKill(Pid(a1), int(a2))
	case abi.SysSend:
		return k.sysSend(c, cur, a1, int(a2))
	case abi.SysRecv:
		return k.sysRecv(c, cur, a1, int(a2))
	case abi.SysSendfile:
		return k.sysSendfile(cur, int(a1), int(a2))
	default:
		return abi.Errno(abi.ENOSYSNo)
	}
}

// faultInRange maps every page of [va, va+n) backed by a VMA (the kernel's
// get_user_pages analogue used before user copies).
func (k *Kernel) faultInRange(c *cpu.Core, t *Task, va paging.Addr, n int, write bool) error {
	kind := paging.Read
	if write {
		kind = paging.Write
	}
	end := va + paging.Addr(n)
	for p := paging.PageBase(va); p < end; p += mem.PageSize {
		pte, _, r := t.P.AS.tables.Lookup(p)
		if r == paging.FaultNone && (!write || pte.Is(paging.Writable)) {
			continue
		}
		tr := &cpu.Trap{Vector: cpu.VecPF, Fault: &paging.Fault{
			Reason: paging.FaultNotPresent, Addr: p, Kind: kind,
		}}
		k.handlePageFault(c, tr, t)
		if t.State == TaskZombie {
			return fmt.Errorf("kernel: task died faulting in %#x", p)
		}
	}
	return nil
}

func (k *Kernel) sysRead(c *cpu.Core, t *Task, fd int, bufVA uint64, n int) uint64 {
	d, ok := t.P.fds[fd]
	if !ok {
		return abi.Errno(abi.EBADFNo)
	}
	data := make([]byte, n)
	rn := d.Read(data)
	if rn == 0 {
		return 0
	}
	k.M.Clock.Charge(costs.Copy(rn))
	if err := k.faultInRange(c, t, paging.Addr(bufVA), rn, true); err != nil {
		return abi.Errno(abi.EFAULTNo)
	}
	if err := k.priv.UserCopy(c, t.P.AS, monitor.CopyToUser, bufVA, data[:rn]); err != nil {
		return abi.Errno(abi.EFAULTNo)
	}
	return uint64(rn)
}

func (k *Kernel) sysWrite(c *cpu.Core, t *Task, fd int, bufVA uint64, n int) uint64 {
	d, ok := t.P.fds[fd]
	if !ok {
		return abi.Errno(abi.EBADFNo)
	}
	data := make([]byte, n)
	if err := k.faultInRange(c, t, paging.Addr(bufVA), n, false); err != nil {
		return abi.Errno(abi.EFAULTNo)
	}
	if err := k.priv.UserCopy(c, t.P.AS, monitor.CopyFromUser, bufVA, data); err != nil {
		return abi.Errno(abi.EFAULTNo)
	}
	wn := d.Write(data)
	k.M.Clock.Charge(costs.Copy(wn))
	return uint64(wn)
}

// readUserString copies a path string from user memory.
func (k *Kernel) readUserString(c *cpu.Core, t *Task, va uint64, n int) (string, bool) {
	if n <= 0 || n > 4096 {
		return "", false
	}
	buf := make([]byte, n)
	if err := k.faultInRange(c, t, paging.Addr(va), n, false); err != nil {
		return "", false
	}
	if err := k.priv.UserCopy(c, t.P.AS, monitor.CopyFromUser, va, buf); err != nil {
		return "", false
	}
	return string(buf), true
}

func (k *Kernel) sysOpen(c *cpu.Core, t *Task, pathVA uint64, pathLen int) uint64 {
	path, ok := k.readUserString(c, t, pathVA, pathLen)
	if !ok {
		return abi.Errno(abi.EFAULTNo)
	}
	f, err := k.vfs.Open(path)
	if err != nil {
		return abi.Errno(abi.ENOENTNo)
	}
	fd := t.P.nextFd
	t.P.nextFd++
	t.P.fds[fd] = &FDesc{file: f}
	return uint64(fd)
}

func (k *Kernel) sysClose(t *Task, fd int) uint64 {
	if _, ok := t.P.fds[fd]; !ok {
		return abi.Errno(abi.EBADFNo)
	}
	delete(t.P.fds, fd)
	return 0
}

func (k *Kernel) sysStat(c *cpu.Core, t *Task, pathVA uint64, pathLen int) uint64 {
	path, ok := k.readUserString(c, t, pathVA, pathLen)
	if !ok {
		return abi.Errno(abi.EFAULTNo)
	}
	size, err := k.vfs.Stat(path)
	if err != nil {
		return abi.Errno(abi.ENOENTNo)
	}
	return uint64(size)
}

func (k *Kernel) addVMA(p *Proc, start, end paging.Addr, w, x bool) *VMA {
	v := &VMA{Start: start, End: end, Writable: w, Exec: x}
	p.VMAs = append(p.VMAs, v)
	return v
}

// sysMmap maps n bytes. fdPlus1, when non-zero, selects file backing from
// descriptor fdPlus1-1 (the mapping becomes demand-paged from the file and
// evictable under memory pressure, like the page cache).
func (k *Kernel) sysMmap(t *Task, n uint64, w, x bool, fdPlus1 uint64) uint64 {
	if n == 0 {
		return abi.Errno(abi.EINVALNo)
	}
	pages := (n + mem.PageSize - 1) / mem.PageSize
	base := t.P.MmapCursor
	t.P.MmapCursor += paging.Addr(pages * mem.PageSize)
	v := k.addVMA(t.P, base, base+paging.Addr(pages*mem.PageSize), w, x)
	if fdPlus1 != 0 {
		d, ok := t.P.fds[int(fdPlus1-1)]
		if !ok {
			return abi.Errno(abi.EBADFNo)
		}
		v.Backing = d.file
	}
	return uint64(base)
}

func (k *Kernel) sysMunmap(c *cpu.Core, t *Task, va paging.Addr, n uint64) uint64 {
	end := va + paging.Addr(n)
	kept := t.P.VMAs[:0]
	for _, v := range t.P.VMAs {
		if v.Start >= va && v.End <= end {
			// A frame is freed only once its unmap applied: until the
			// flush lands, a stale TLB entry could still reach it.
			k.reqs, k.frames = k.reqs[:0], k.frames[:0]
			for p := v.Start; p < v.End; p += mem.PageSize {
				if f, ok := t.P.AS.Translate(p); ok {
					k.reqs = append(k.reqs, monitor.RingReq{Op: monitor.OpUnmap, VA: p})
					k.frames = append(k.frames, f)
				}
			}
			n, _ := k.priv.Submit(c, t.P.AS, k.reqs)
			for _, f := range k.frames[:n] {
				_ = k.M.Phys.Free(f)
			}
			continue
		}
		kept = append(kept, v)
	}
	t.P.VMAs = kept
	return 0
}

func (k *Kernel) sysMprotect(c *cpu.Core, t *Task, va paging.Addr, n uint64, w, x bool) uint64 {
	end := va + paging.Addr(n)
	for _, v := range t.P.VMAs {
		if va >= v.Start && end <= v.End {
			v.Writable, v.Exec = w, x
			flags := monitor.MapFlags{Writable: w, Exec: x}
			k.reqs = k.reqs[:0]
			for p := paging.PageBase(va); p < end; p += mem.PageSize {
				if _, ok := t.P.AS.Translate(p); ok {
					k.reqs = append(k.reqs, monitor.RingReq{Op: monitor.OpProtect, VA: p, Flags: flags})
				}
			}
			if _, err := k.priv.Submit(c, t.P.AS, k.reqs); err != nil {
				return abi.Errno(abi.EPERMNo)
			}
			return 0
		}
	}
	return abi.Errno(abi.EINVALNo)
}

func (k *Kernel) sysBrk(t *Task, delta int64) uint64 {
	old := t.P.Brk
	nb := paging.Addr(int64(t.P.Brk) + delta)
	if nb < t.P.BrkStart {
		nb = t.P.BrkStart
	}
	t.P.Brk = nb
	// Maintain a single heap VMA covering [BrkStart, Brk).
	for _, v := range t.P.VMAs {
		if v.Start == t.P.BrkStart && v.Writable && !v.Exec {
			if nb > v.End {
				v.End = nb
			}
			return uint64(old)
		}
	}
	if nb > t.P.BrkStart {
		k.addVMA(t.P, t.P.BrkStart, nb, true, false)
	}
	return uint64(old)
}

func (k *Kernel) sysIoctl(c *cpu.Core, t *Task, fd, cmd, arg, arg2 uint64) uint64 {
	if fd != abi.EreborDevFD {
		return abi.Errno(abi.EBADFNo)
	}
	// Native / LibOS-only mode: the kernel emulates the Erebor device with
	// plain queues and treats memory declarations as ordinary mappings (the
	// paper's DebugFS-based channel emulation, §7). Under Erebor, sandbox
	// ioctls never reach this point (the monitor intercepts them); a
	// non-sandboxed caller gets EBADF.
	if k.Mode == ModeErebor {
		return abi.Errno(abi.EBADFNo)
	}
	switch cmd {
	case abi.IoctlDeclareConfined:
		npages := arg2
		base := paging.Addr(arg)
		k.addVMA(t.P, base, base+paging.Addr(npages*mem.PageSize), true, c.Regs.GPR[cpu.R8] != 0)
		return 0
	case abi.IoctlAttachCommon:
		// Without a monitor there is no sharing: back the region with
		// private pages (replication is exactly the cost the paper's
		// memory-sharing evaluation quantifies).
		return abi.Errno(abi.EINVALNo)
	case abi.IoctlInput:
		return k.devEmuInput(c, t, paging.Addr(arg))
	case abi.IoctlOutput:
		return k.devEmuOutput(c, t, paging.Addr(arg))
	case abi.IoctlSessionEnd:
		return 0
	}
	return abi.Errno(abi.EINVALNo)
}

func (k *Kernel) sysFork(c *cpu.Core, t *Task) uint64 {
	fn := k.pendingForkFn
	k.pendingForkFn = nil
	if fn == nil {
		fn = func(e *Env) {}
	}
	k.Stats.Forks++
	k.M.Clock.Charge(costs.ForkBookkeeping)
	as, err := k.priv.CreateAS(c, t.P.Owner)
	if err != nil {
		return abi.Errno(abi.ENOMEMNo)
	}
	child := &Proc{
		AS: as, Owner: t.P.Owner,
		Brk: t.P.Brk, BrkStart: t.P.BrkStart, MmapCursor: t.P.MmapCursor,
		fds:         make(map[int]*FDesc),
		nextFd:      t.P.nextFd,
		sigHandlers: make(map[int]func(*Env, int)),
		threads:     1,
	}
	for fd, d := range t.P.fds {
		child.fds[fd] = d.Clone()
	}
	// Copy VMAs and eagerly duplicate every present page: address-space
	// duplication is the MMU-heavy part of fork the paper's lmbench run
	// stresses (§9.1).
	k.reqs = k.reqs[:0]
	for _, v := range t.P.VMAs {
		child.VMAs = append(child.VMAs, &VMA{Start: v.Start, End: v.End, Writable: v.Writable, Exec: v.Exec})
		for p := v.Start; p < v.End; p += mem.PageSize {
			src, ok := t.P.AS.Translate(p)
			if !ok {
				continue
			}
			dst, err := k.M.Phys.Alloc(t.P.Owner)
			if err != nil {
				return abi.Errno(abi.ENOMEMNo)
			}
			sb, _ := k.M.Phys.Bytes(src)
			db, _ := k.M.Phys.Bytes(dst)
			copy(db, sb)
			k.M.Clock.Charge(costs.Copy(mem.PageSize))
			k.reqs = append(k.reqs, monitor.RingReq{
				Op: monitor.OpMap, VA: p, Frame: dst,
				Flags: monitor.MapFlags{Writable: v.Writable, Exec: v.Exec},
			})
		}
	}
	if _, err := k.priv.Submit(c, as, k.reqs); err != nil {
		return abi.Errno(abi.ENOMEMNo)
	}
	ct := k.addTask(t.Name+"-child", t.Pid, child, fn)
	return uint64(ct.Pid)
}

func (k *Kernel) sysClone(t *Task) uint64 {
	fn := k.pendingForkFn
	name := k.pendingThreadName
	k.pendingForkFn = nil
	k.pendingThreadName = ""
	if fn == nil {
		return abi.Errno(abi.EINVALNo)
	}
	if name == "" {
		name = t.Name + "-thread"
	}
	t.P.threads++
	ct := k.addTask(name, t.Pid, t.P, fn)
	return uint64(ct.Pid)
}

// Futex ops.
const (
	FutexWait uint64 = 0
	FutexWake uint64 = 1
)

func (k *Kernel) sysFutex(c *cpu.Core, t *Task, addr, op, val uint64) uint64 {
	switch op {
	case FutexWait:
		var word [4]byte
		if err := k.faultInRange(c, t, paging.Addr(addr), 4, false); err != nil {
			return abi.Errno(abi.EFAULTNo)
		}
		if err := k.priv.UserCopy(c, t.P.AS, monitor.CopyFromUser, addr, word[:]); err != nil {
			return abi.Errno(abi.EFAULTNo)
		}
		cur := uint64(word[0]) | uint64(word[1])<<8 | uint64(word[2])<<16 | uint64(word[3])<<24
		if cur != val {
			return abi.Errno(abi.EAGAINNo)
		}
		t.State = TaskBlocked
		k.futexQ[addr] = append(k.futexQ[addr], t)
		return 0
	case FutexWake:
		woken := uint64(0)
		q := k.futexQ[addr]
		for len(q) > 0 && woken < val {
			w := q[0]
			q = q[1:]
			k.wake(w, 0)
			woken++
		}
		k.futexQ[addr] = q
		return woken
	}
	return abi.Errno(abi.EINVALNo)
}

func (k *Kernel) sysSigaction(t *Task, sig int) uint64 {
	h := k.pendingSigHandler
	k.pendingSigHandler = nil
	if h == nil {
		delete(t.P.sigHandlers, sig)
		return 0
	}
	t.P.sigHandlers[sig] = h
	return 0
}

func (k *Kernel) sysKill(pid Pid, sig int) uint64 {
	target, ok := k.tasks[pid]
	if !ok || target.State == TaskZombie {
		return abi.Errno(abi.ENOENTNo)
	}
	target.pendingSigs = append(target.pendingSigs, sig)
	if target.State == TaskBlocked {
		k.wake(target, abi.Errno(abi.EAGAINNo))
	}
	return 0
}

// Sigaction installs a signal handler closure (sugar over SysSigaction).
func (e *Env) Sigaction(sig int, h func(e *Env, sig int)) uint64 {
	e.K.pendingSigHandler = h
	return e.Syscall(abi.SysSigaction, uint64(sig))
}

// sysSend transmits a user buffer through the NIC (GHCI path).
func (k *Kernel) sysSend(c *cpu.Core, t *Task, bufVA uint64, n int) uint64 {
	data := make([]byte, n)
	if err := k.faultInRange(c, t, paging.Addr(bufVA), n, false); err != nil {
		return abi.Errno(abi.EFAULTNo)
	}
	if err := k.priv.UserCopy(c, t.P.AS, monitor.CopyFromUser, bufVA, data); err != nil {
		return abi.Errno(abi.EFAULTNo)
	}
	if err := k.NetSend(data); err != nil {
		return abi.Errno(abi.EINVALNo)
	}
	return uint64(n)
}

// sysRecv receives one frame into a user buffer (0 when none pending).
func (k *Kernel) sysRecv(c *cpu.Core, t *Task, bufVA uint64, n int) uint64 {
	data, err := k.NetRecv()
	if err != nil {
		return abi.Errno(abi.EINVALNo)
	}
	if data == nil {
		return 0
	}
	if len(data) > n {
		data = data[:n]
	}
	if err := k.faultInRange(c, t, paging.Addr(bufVA), len(data), true); err != nil {
		return abi.Errno(abi.EFAULTNo)
	}
	if err := k.priv.UserCopy(c, t.P.AS, monitor.CopyToUser, bufVA, data); err != nil {
		return abi.Errno(abi.EFAULTNo)
	}
	return uint64(len(data))
}

// sysSendfile streams n bytes from an open file descriptor straight to the
// NIC (zero user-space copies).
func (k *Kernel) sysSendfile(t *Task, fd, n int) uint64 {
	d, ok := t.P.fds[fd]
	if !ok {
		return abi.Errno(abi.EBADFNo)
	}
	data := make([]byte, n)
	rn := d.Read(data)
	if rn == 0 {
		return 0
	}
	k.M.Clock.Charge(costs.Copy(rn))
	if err := k.NetSend(data[:rn]); err != nil {
		return abi.Errno(abi.EINVALNo)
	}
	return uint64(rn)
}

// --- native Erebor-device emulation (DebugFS stand-in) -------------------------

// DevEmuPush queues input for the LibOS-only configuration.
func (k *Kernel) DevEmuPush(data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	k.devEmuIn = append(k.devEmuIn, cp)
}

// DevEmuOutputs drains the emulated output channel.
func (k *Kernel) DevEmuOutputs() [][]byte {
	out := k.devEmuOut
	k.devEmuOut = nil
	return out
}

func (k *Kernel) devEmuInput(c *cpu.Core, t *Task, payloadVA paging.Addr) uint64 {
	if len(k.devEmuIn) == 0 {
		return 0
	}
	var hdr [abi.IOPayloadSize]byte
	if err := k.faultInRange(c, t, payloadVA, len(hdr), true); err != nil {
		return abi.Errno(abi.EFAULTNo)
	}
	if err := k.priv.UserCopy(c, t.P.AS, monitor.CopyFromUser, uint64(payloadVA), hdr[:]); err != nil {
		return abi.Errno(abi.EFAULTNo)
	}
	bufVA := le64(hdr[0:8])
	bufCap := le64(hdr[8:16])
	data := k.devEmuIn[0]
	k.devEmuIn = k.devEmuIn[1:]
	if uint64(len(data)) > bufCap {
		data = data[:bufCap]
	}
	if err := k.faultInRange(c, t, paging.Addr(bufVA), len(data), true); err != nil {
		return abi.Errno(abi.EFAULTNo)
	}
	if err := k.priv.UserCopy(c, t.P.AS, monitor.CopyToUser, bufVA, data); err != nil {
		return abi.Errno(abi.EFAULTNo)
	}
	var szb [8]byte
	putLE64(szb[:], uint64(len(data)))
	if err := k.priv.UserCopy(c, t.P.AS, monitor.CopyToUser, uint64(payloadVA)+8, szb[:]); err != nil {
		return abi.Errno(abi.EFAULTNo)
	}
	return uint64(len(data))
}

func (k *Kernel) devEmuOutput(c *cpu.Core, t *Task, payloadVA paging.Addr) uint64 {
	var hdr [abi.IOPayloadSize]byte
	if err := k.faultInRange(c, t, payloadVA, len(hdr), false); err != nil {
		return abi.Errno(abi.EFAULTNo)
	}
	if err := k.priv.UserCopy(c, t.P.AS, monitor.CopyFromUser, uint64(payloadVA), hdr[:]); err != nil {
		return abi.Errno(abi.EFAULTNo)
	}
	bufVA := le64(hdr[0:8])
	size := le64(hdr[8:16])
	data := make([]byte, size)
	if err := k.faultInRange(c, t, paging.Addr(bufVA), int(size), false); err != nil {
		return abi.Errno(abi.EFAULTNo)
	}
	if err := k.priv.UserCopy(c, t.P.AS, monitor.CopyFromUser, bufVA, data); err != nil {
		return abi.Errno(abi.EFAULTNo)
	}
	k.devEmuOut = append(k.devEmuOut, data)
	return size
}

func le64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLE64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
