// Package libos is the Gramine-derived library OS that runs inside an
// EREBOR-SANDBOX (§6.2). It emulates the four runtime services the paper
// lists entirely in userspace: heap memory management over pre-declared
// confined memory, an in-memory stateless filesystem, cooperative threads
// with spinlock synchronization (no futex — syscalls are disabled once
// client data arrives), and the monitor-mediated data channel through the
// /dev/erebor ioctl interface.
//
// The same LibOS also runs in a normal CVM without the monitor (the
// paper's "LibOS-only" ablation): the ioctl interface is then backed by
// the kernel's DebugFS-style device emulation and memory declarations are
// ordinary mappings.
package libos

import (
	"encoding/binary"
	"fmt"

	"github.com/asterisc-release/erebor-go/internal/abi"
	"github.com/asterisc-release/erebor-go/internal/costs"
	"github.com/asterisc-release/erebor-go/internal/kernel"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/paging"
)

// Memory layout inside the sandbox address space.
const (
	ConfinedBase paging.Addr = 0x0000_2000_0000 // heap + buffers + in-memory FS
	CommonBase   paging.Addr = 0x0000_4000_0000 // attached common regions
	payloadPages             = 1
)

// Config sizes the LibOS instance.
type Config struct {
	// HeapPages is the confined heap declared at initialization (the LibOS
	// pre-allocates ALL confined memory up front, §6.2 service 1).
	HeapPages uint64
	// MaxThreads bounds the thread pool created during initialization.
	MaxThreads int
}

// OS is one LibOS instance bound to a task's Env.
type OS struct {
	Env *kernel.Env
	cfg Config

	heapBase paging.Addr
	heapEnd  paging.Addr
	brk      paging.Addr

	payloadVA paging.Addr

	files map[string]*memFile

	commonCursor paging.Addr

	threadsSpawned int
	initDone       bool

	// Stats.
	EmulatedSyscalls uint64
}

type memFile struct {
	va   paging.Addr
	size int
	cap  int
}

// Boot initializes the LibOS: declares the confined heap and the I/O
// payload page through the Erebor device.
func Boot(e *kernel.Env, cfg Config) (*OS, error) {
	if cfg.HeapPages == 0 {
		cfg.HeapPages = 1024
	}
	if cfg.MaxThreads == 0 {
		cfg.MaxThreads = 8
	}
	os := &OS{
		Env: e, cfg: cfg,
		heapBase: ConfinedBase + payloadPages*mem.PageSize,
		files:    make(map[string]*memFile),

		commonCursor: CommonBase,
	}
	os.heapEnd = os.heapBase + paging.Addr(cfg.HeapPages*mem.PageSize)
	os.brk = os.heapBase
	os.payloadVA = ConfinedBase

	// Declare payload page + heap as confined memory (one ioctl each; the
	// monitor allocates, maps, pins and zeroes CMA frames).
	if err := os.declare(os.payloadVA, payloadPages); err != nil {
		return nil, err
	}
	if err := os.declare(os.heapBase, cfg.HeapPages); err != nil {
		return nil, err
	}
	// Pre-fault the loader's working set, an eighth of the heap up to 32
	// pages. This is the paper's §9.2 one-time initialization overhead:
	// "pre-allocating container memory triggers many page faults".
	pf := min(cfg.HeapPages/8, 32)
	for p := uint64(0); p < pf; p++ {
		e.Touch(os.heapBase+paging.Addr(p*mem.PageSize), 1, true)
	}
	os.initDone = true
	return os, nil
}

// Adopt binds a LibOS instance to a sandbox forked from a snapshot
// template. The template's LibOS already declared the confined layout
// (payload page + heap) before it was frozen, and the fork inherited that
// image copy-on-write — so adoption rebuilds only the userspace
// bookkeeping: no declaration ioctls, no prefaulting, no monitor work at
// all. The allocator restarts at the heap base; a forked worker replaying
// the template worker's deterministic allocation sequence lands on the
// same addresses the template's frames were declared at.
func Adopt(e *kernel.Env, cfg Config) *OS {
	if cfg.HeapPages == 0 {
		cfg.HeapPages = 1024
	}
	if cfg.MaxThreads == 0 {
		cfg.MaxThreads = 8
	}
	os := &OS{
		Env: e, cfg: cfg,
		heapBase: ConfinedBase + payloadPages*mem.PageSize,
		files:    make(map[string]*memFile),

		commonCursor: CommonBase,
	}
	os.heapEnd = os.heapBase + paging.Addr(cfg.HeapPages*mem.PageSize)
	os.brk = os.heapBase
	os.payloadVA = ConfinedBase
	os.initDone = true
	return os
}

// AdoptCommon accounts for a common region the fork already holds: the
// monitor replayed the template's attachments at fork time, so the LibOS
// only advances its layout cursor (mirroring AttachCommon's placement) and
// returns the base the region is reachable at. No ioctl is issued.
func (os *OS) AdoptCommon(npages uint64) paging.Addr {
	base := os.commonCursor
	os.commonCursor += paging.Addr(npages * mem.PageSize)
	return base
}

func (os *OS) declare(va paging.Addr, npages uint64) error {
	ret := os.Env.Syscall(abi.SysIoctl, abi.EreborDevFD, abi.IoctlDeclareConfined, uint64(va), npages)
	if abi.IsError(ret) {
		return fmt.Errorf("libos: confined declaration at %#x (%d pages) failed: errno %d", va, npages, abi.Err(ret))
	}
	return nil
}

// Alloc carves n bytes (16-byte aligned) from the confined heap.
func (os *OS) Alloc(n int) (paging.Addr, error) {
	os.EmulatedSyscalls++
	os.Env.Charge(costs.LibOSSyscallEmu)
	aligned := (n + 15) &^ 15
	if os.brk+paging.Addr(aligned) > os.heapEnd {
		return 0, fmt.Errorf("libos: heap exhausted (%d bytes requested, %d free)", n, os.heapEnd-os.brk)
	}
	va := os.brk
	os.brk += paging.Addr(aligned)
	return va, nil
}

// AllocPages carves whole pages from the confined heap.
func (os *OS) AllocPages(n uint64) (paging.Addr, error) {
	os.brk = paging.Addr((uint64(os.brk) + mem.PageSize - 1) &^ (mem.PageSize - 1))
	return os.Alloc(int(n * mem.PageSize))
}

// HeapFree reports remaining heap bytes.
func (os *OS) HeapFree() int { return int(os.heapEnd - os.brk) }

// AttachCommon maps a monitor-registered common region at the next common
// slot. In a normal CVM (no monitor) this fails; callers fall back to
// loading a private copy — exactly the replication cost the paper's memory
// evaluation quantifies.
func (os *OS) AttachCommon(regionID uint64, npages uint64, writable bool) (paging.Addr, error) {
	base := os.commonCursor
	w := uint64(0)
	if writable {
		w = 1
	}
	ret := os.Env.Syscall(abi.SysIoctl, abi.EreborDevFD, abi.IoctlAttachCommon, uint64(base), regionID, w)
	if abi.IsError(ret) {
		return 0, fmt.Errorf("libos: attach common region %d failed: errno %d", regionID, abi.Err(ret))
	}
	os.commonCursor += paging.Addr(npages * mem.PageSize)
	return base, nil
}

// --- in-memory stateless filesystem (§6.2 service 2) ---------------------------

// Preload copies a host file into the in-memory FS before client data
// arrives (libraries, configuration).
func (os *OS) Preload(path string) error {
	e := os.Env
	scratch, err := os.Alloc(len(path))
	if err != nil {
		return err
	}
	e.WriteMem(scratch, []byte(path))
	size := e.Syscall(abi.SysStat, uint64(scratch), uint64(len(path)))
	if abi.IsError(size) {
		return fmt.Errorf("libos: preload %s: stat errno %d", path, abi.Err(size))
	}
	fd := e.Syscall(abi.SysOpen, uint64(scratch), uint64(len(path)))
	if abi.IsError(fd) {
		return fmt.Errorf("libos: preload %s: open errno %d", path, abi.Err(fd))
	}
	defer e.Syscall(abi.SysClose, fd)
	va, err := os.Alloc(int(size))
	if err != nil {
		return err
	}
	got := e.Syscall(abi.SysRead, fd, uint64(va), size)
	if abi.IsError(got) {
		return fmt.Errorf("libos: preload %s: read errno %d", path, abi.Err(got))
	}
	os.files[path] = &memFile{va: va, size: int(got), cap: int(size)}
	return nil
}

// MapHostFile maps a host file read-only (page-cache semantics: demand
// paged and evictable). Used by the LibOS-only configuration's private
// fallback for shared datasets. Returns the mapping base and file size.
func (os *OS) MapHostFile(path string) (paging.Addr, int, error) {
	e := os.Env
	scratch, err := os.Alloc(len(path))
	if err != nil {
		return 0, 0, err
	}
	e.WriteMem(scratch, []byte(path))
	size := e.Syscall(abi.SysStat, uint64(scratch), uint64(len(path)))
	if abi.IsError(size) {
		return 0, 0, fmt.Errorf("libos: map %s: stat errno %d", path, abi.Err(size))
	}
	fd := e.Syscall(abi.SysOpen, uint64(scratch), uint64(len(path)))
	if abi.IsError(fd) {
		return 0, 0, fmt.Errorf("libos: map %s: open errno %d", path, abi.Err(fd))
	}
	va := e.MmapFile(fd, int(size))
	if abi.IsError(uint64(va)) {
		return 0, 0, fmt.Errorf("libos: map %s: mmap errno %d", path, abi.Err(uint64(va)))
	}
	return va, int(size), nil
}

// CreateFile makes an empty in-memory temp file with capacity capBytes.
func (os *OS) CreateFile(path string, capBytes int) error {
	os.EmulatedSyscalls++
	os.Env.Charge(costs.LibOSSyscallEmu)
	va, err := os.Alloc(capBytes)
	if err != nil {
		return err
	}
	os.files[path] = &memFile{va: va, cap: capBytes}
	return nil
}

// FileRead copies up to len(buf) bytes from an in-memory file at off.
func (os *OS) FileRead(path string, off int, buf []byte) (int, error) {
	os.EmulatedSyscalls++
	os.Env.Charge(costs.LibOSSyscallEmu)
	f, ok := os.files[path]
	if !ok {
		return 0, fmt.Errorf("libos: %s: no such in-memory file", path)
	}
	if off >= f.size {
		return 0, nil
	}
	n := len(buf)
	if off+n > f.size {
		n = f.size - off
	}
	os.Env.ReadMem(f.va+paging.Addr(off), buf[:n])
	return n, nil
}

// FileWrite stores buf into an in-memory file at off.
func (os *OS) FileWrite(path string, off int, buf []byte) (int, error) {
	os.EmulatedSyscalls++
	os.Env.Charge(costs.LibOSSyscallEmu)
	f, ok := os.files[path]
	if !ok {
		return 0, fmt.Errorf("libos: %s: no such in-memory file", path)
	}
	if off+len(buf) > f.cap {
		return 0, fmt.Errorf("libos: %s: write past capacity (%d+%d > %d)", path, off, len(buf), f.cap)
	}
	os.Env.WriteMem(f.va+paging.Addr(off), buf)
	if off+len(buf) > f.size {
		f.size = off + len(buf)
	}
	return len(buf), nil
}

// FileSize returns an in-memory file's size.
func (os *OS) FileSize(path string) (int, bool) {
	f, ok := os.files[path]
	if !ok {
		return 0, false
	}
	return f.size, true
}

// --- threads and synchronization (§6.2 service 3) ------------------------------

// SpawnThread creates a worker thread. Threads must be created during
// initialization: once client data is installed, clone would be a
// prohibited exit and the monitor would kill the sandbox.
func (os *OS) SpawnThread(name string, fn func(e *kernel.Env)) error {
	if os.threadsSpawned >= os.cfg.MaxThreads {
		return fmt.Errorf("libos: thread pool exhausted (%d max)", os.cfg.MaxThreads)
	}
	os.threadsSpawned++
	os.Env.SpawnThread(name, fn)
	return nil
}

// Spinlock is the LibOS userspace lock (replaces futex inside sandboxes;
// §6.2: busy-waiting costs more CPU but leaks no covert signal through
// syscall timing).
type Spinlock struct {
	held bool
	// Spins counts contended acquisition loops (utilization statistics).
	Spins uint64
}

// Lock acquires the spinlock, charging busy-wait cycles while contended.
// With the simulator's cooperative scheduler the loop always terminates:
// the holder runs (and unlocks) when this task yields at quantum end.
func (l *Spinlock) Lock(e *kernel.Env) {
	e.Charge(costs.SpinlockUncontended)
	for l.held {
		l.Spins++
		e.Charge(costs.SpinlockContendedSpin)
		e.YieldCPU()
	}
	l.held = true
}

// Unlock releases the lock.
func (l *Spinlock) Unlock(e *kernel.Env) {
	e.Charge(costs.SpinlockUncontended / 2)
	l.held = false
}

// --- client data channel (§6.2 service 4 / §6.3) --------------------------------

// ReceiveInput asks the monitor for the next client message, copying it
// into a confined buffer of capacity maxBytes. It returns the buffer VA
// and message size (0 if no input is pending after `retries` scheduler
// yields).
func (os *OS) ReceiveInput(maxBytes int, retries int) (paging.Addr, int, error) {
	buf, err := os.Alloc(maxBytes)
	if err != nil {
		return 0, 0, err
	}
	return os.ReceiveInputInto(buf, maxBytes, retries)
}

// ReceiveInputInto is ReceiveInput with a caller-provided confined buffer.
func (os *OS) ReceiveInputInto(buf paging.Addr, maxBytes int, retries int) (paging.Addr, int, error) {
	e := os.Env
	var hdr [abi.IOPayloadSize]byte
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(buf))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(maxBytes))
	for attempt := 0; ; attempt++ {
		e.WriteMem(os.payloadVA, hdr[:])
		ret := e.Syscall(abi.SysIoctl, abi.EreborDevFD, abi.IoctlInput, uint64(os.payloadVA))
		if abi.IsError(ret) {
			return 0, 0, fmt.Errorf("libos: input ioctl errno %d", abi.Err(ret))
		}
		if ret > 0 {
			return buf, int(ret), nil
		}
		if attempt >= retries {
			return buf, 0, nil
		}
		e.YieldCPU()
	}
}

// SendOutput hands size bytes at va to the monitor for padded, encrypted
// transmission to the client.
func (os *OS) SendOutput(va paging.Addr, size int) error {
	e := os.Env
	var hdr [abi.IOPayloadSize]byte
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(va))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(size))
	e.WriteMem(os.payloadVA, hdr[:])
	ret := e.Syscall(abi.SysIoctl, abi.EreborDevFD, abi.IoctlOutput, uint64(os.payloadVA))
	if abi.IsError(ret) {
		return fmt.Errorf("libos: output ioctl errno %d", abi.Err(ret))
	}
	return nil
}

// SendOutputBytes copies data into a confined buffer and sends it.
func (os *OS) SendOutputBytes(data []byte) error {
	va, err := os.Alloc(len(data))
	if err != nil {
		return err
	}
	os.Env.WriteMem(va, data)
	return os.SendOutput(va, len(data))
}

// EndSession tells the monitor the client session is over (sandbox memory
// is zeroed).
func (os *OS) EndSession() {
	os.Env.Syscall(abi.SysIoctl, abi.EreborDevFD, abi.IoctlSessionEnd, 0)
}
