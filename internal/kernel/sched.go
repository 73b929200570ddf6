package kernel

import (
	"fmt"
	"slices"
	"strconv"

	"github.com/asterisc-release/erebor-go/internal/abi"
	"github.com/asterisc-release/erebor-go/internal/costs"
	"github.com/asterisc-release/erebor-go/internal/cpu"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/monitor"
	"github.com/asterisc-release/erebor-go/internal/paging"
	"github.com/asterisc-release/erebor-go/internal/task"
	"github.com/asterisc-release/erebor-go/internal/trace"
)

// Pid identifies a task.
type Pid int

// TaskState is the scheduler state of a task.
type TaskState int

const (
	TaskRunnable TaskState = iota
	TaskBlocked
	TaskZombie
)

// VMA is one user virtual-memory area (demand-paged).
type VMA struct {
	Start, End paging.Addr
	Writable   bool
	Exec       bool
	// Backing, if set, makes the VMA file-backed: faulted-in pages are
	// filled from the file at BackingOff + (page - Start), and the VMA
	// becomes evictable under memory pressure (clean page-cache reclaim).
	Backing    *File
	BackingOff int
}

// Proc is the process state shared by all threads of a thread group.
type Proc struct {
	AS      *AddrSpace
	Owner   mem.Owner
	Sandbox monitor.SandboxID

	VMAs       []*VMA
	Brk        paging.Addr
	BrkStart   paging.Addr
	MmapCursor paging.Addr

	fds    map[int]*FDesc
	nextFd int

	sigHandlers map[int]func(e *Env, sig int)

	threads int
}

// Task is one schedulable thread.
type Task struct {
	Pid  Pid
	PPid Pid
	Name string
	P    *Proc

	State      TaskState
	ExitCode   int
	ExitReason string

	co            *task.Task
	pendingResume any
	pendingSigs   []int
	// yielded is the trap the task hands the scheduler with its yield.
	yielded event

	k *Kernel
}

func (t *Task) exitLocked(code int, reason string) {
	if t.State == TaskZombie {
		return
	}
	t.State = TaskZombie
	t.ExitCode = code
	t.ExitReason = reason
	t.P.threads--
	// If the kill originates while control is inside the coroutine (a
	// kernel path invoked from task context), the scheduler reaps it at the
	// next yield instead — Kill here would deadlock.
	if t.co != nil && !t.co.Finished() && !t.co.Running() {
		t.co.Kill()
	}
}

// reapIfZombie finishes off a task marked zombie while it was running.
func (t *Task) reapIfZombie() bool {
	if t.State != TaskZombie {
		return false
	}
	if t.co != nil && !t.co.Finished() && !t.co.Running() {
		t.co.Kill()
	}
	return true
}

// userLayout constants.
const (
	userBrkStart  paging.Addr = 0x0000_0100_0000
	userMmapStart paging.Addr = 0x0000_7000_0000
)

// Spawn creates a new process running fn in its own address space.
func (k *Kernel) Spawn(name string, owner mem.Owner, fn func(e *Env)) (*Task, error) {
	c := k.core()
	as, err := k.priv.CreateAS(c, owner)
	if err != nil {
		return nil, err
	}
	p := &Proc{
		AS: as, Owner: owner,
		Brk: userBrkStart, BrkStart: userBrkStart, MmapCursor: userMmapStart,
		fds:         make(map[int]*FDesc),
		nextFd:      3,
		sigHandlers: make(map[int]func(*Env, int)),
		threads:     1,
	}
	return k.addTask(name, 0, p, fn), nil
}

func (k *Kernel) addTask(name string, ppid Pid, p *Proc, fn func(e *Env)) *Task {
	k.nextPid++
	t := &Task{Pid: k.nextPid, PPid: ppid, Name: name, P: p, k: k}
	t.co = task.Start(name, func(y *task.Yield) {
		env := &Env{K: k, T: t, y: y}
		fn(env)
	})
	k.tasks[t.Pid] = t
	k.runq = append(k.runq, t)
	return t
}

// Close kills every task whose coroutine has not finished, in Pid order,
// so no goroutine stays parked on a kernel that is being dropped. The
// kernel must not be scheduled afterwards. Closing twice is a no-op.
func (k *Kernel) Close() {
	pids := make([]Pid, 0, len(k.tasks))
	for pid, t := range k.tasks {
		if !t.co.Finished() {
			pids = append(pids, pid)
		}
	}
	slices.Sort(pids)
	for _, pid := range pids {
		k.tasks[pid].co.Kill()
	}
}

// --- trap events -----------------------------------------------------------------

// evKind names the trap a user task raises.
type evKind uint8

const (
	// evNone is what a task yields when a trap it serviced itself ended
	// its slice: the scheduler has nothing left to service.
	evNone evKind = iota
	evSyscall
	evFault
	evCPUID
	evUIPI
	evVE
	evPreempt
	evExit
	// evFatal is a task-side unrecoverable failure (Env.Fatal): the
	// scheduler terminates the task with a typed reason and, when the task
	// hosts a sandbox, routes the teardown through the monitor's
	// kill/violation path so confined memory is scrubbed.
	evFatal
)

// event is one trap a user task raises. It travels by value: straight
// into Kernel.trap when the task services it on its own goroutine, and
// through Task.yielded when the scheduler services it.
type event struct {
	kind   evKind
	num    uint64            // syscall number, CPUID leaf or UIPI target
	args   [5]uint64         // syscall arguments: RDI, RSI, RDX, R10, R8
	va     paging.Addr       // faulting page
	access paging.AccessKind // faulting access
	code   int               // exit or fatal code
	detail string            // #VE detail or fatal reason
}

// handlerPanic carries a panic raised while a task serviced its own trap
// to the scheduler, which re-raises it: the kernel failed, not the task.
type handlerPanic struct{ val any }

// pfTrap is a page-fault trap and its fault record in one allocation.
type pfTrap struct {
	cpu.Trap
	fault paging.Fault
}

// --- scheduler ------------------------------------------------------------------

// Schedule runs tasks round-robin until no task is runnable. Successive
// slices step across the machine's cores in a fixed round-robin core
// interleave, so SMP scheduling is deterministic on the virtual clock.
func (k *Kernel) Schedule() {
	for k.StepOne() {
	}
}

// StepOne dispatches the next runnable task for one slice. It reports
// false when no task is runnable.
func (k *Kernel) StepOne() bool {
	for len(k.runq) > 0 {
		t := k.runq[0]
		k.runq = k.runq[1:]
		if t.State != TaskRunnable {
			continue
		}
		k.dispatch(t, k.nextCore())
		return true
	}
	return false
}

// StepPid dispatches one slice of a specific task if it is queued and
// runnable. The serving path uses it to round-robin across many tenant
// tasks deterministically (fair stepping regardless of runq order). Returns
// false when the task is not currently dispatchable.
func (k *Kernel) StepPid(pid Pid) bool {
	return k.stepPidOn(pid, k.nextCore())
}

// StepPidOn is StepPid with an explicit dispatch core (modulo the number
// of cores): the serving path uses it for deterministic slot→core
// affinity instead of the global round-robin cursor.
func (k *Kernel) StepPidOn(pid Pid, coreID int) bool {
	return k.stepPidOn(pid, k.M.Cores[coreID%len(k.M.Cores)])
}

func (k *Kernel) stepPidOn(pid Pid, c *cpu.Core) bool {
	for i, t := range k.runq {
		if t.Pid != pid {
			continue
		}
		k.runq = append(k.runq[:i], k.runq[i+1:]...)
		if t.State != TaskRunnable {
			return false
		}
		k.dispatch(t, c)
		return true
	}
	return false
}

func (k *Kernel) dispatch(t *Task, c *cpu.Core) {
	k.curCore = c
	defer func() { k.curCore = nil }()
	// Profiler frame for the whole slice: context switch, syscalls, faults
	// and user compute all nest under kernel/dispatch.
	k.M.PushFrame("kernel/dispatch")
	defer k.M.PopFrame()
	dispStart := k.M.Clock.Now()
	// Open span: syscalls, faults and EMC gates inside the slice parent
	// into the dispatch, which itself parents into the serving loop's
	// ambient phase segment.
	dispSpan := k.Rec.Begin()
	defer k.Rec.EndSpan(dispSpan, trace.KindDispatch, trace.CoreTrack(c.ID), t.Name)
	if k.Attr.Active() {
		// Per-tenant dispatch attribution: the whole slice — context switch,
		// syscalls, faults, user compute — lands on the tenant the serving
		// loop currently names. Reading the clock twice charges nothing.
		tenant := k.Attr.Series()
		defer func() { tenant.AddDispatch(k.M.Clock.Now() - dispStart) }()
	}
	k.Stats.ContextSwitches++
	k.M.Clock.Charge(costs.ContextSwitch)
	if err := k.priv.SwitchTo(c, t.P.AS); err != nil {
		t.exitLocked(127, "address-space switch failed: "+err.Error())
		return
	}
	k.current = t
	k.sliceEnd = k.M.Clock.Now() + TimerQuantum
	c.SetRing(3)
	defer c.SetRing(0)

	in := t.pendingResume
	t.pendingResume = nil
	out, done, err := t.co.Resume(in)
	if p, ok := out.(handlerPanic); ok {
		panic(p.val)
	}
	if !done {
		// A yield ends the slice. The task hands over a preemption, an Exit
		// or a Fatal to service here, or nothing when a trap it serviced
		// itself ended the slice.
		ev := t.yielded
		t.yielded = event{}
		k.trap(t, c, ev)
		if ev.kind != evExit {
			t.reapIfZombie()
			return
		}
		// Let the coroutine run to completion; Env.trap drops the traps an
		// exited task raises on the way.
		for !done {
			_, done, _ = t.co.Resume(nil)
		}
		return
	}
	if t.State != TaskZombie {
		if err != nil {
			t.exitLockedNoKill(1, err.Error())
		} else {
			t.exitLockedNoKill(0, "")
		}
	}
}

// trap is the kernel's one event handler. It services ev for t, the task
// dispatched on c, and reports whether t's slice ends with it. A trapping
// call's results are left in c's registers; a refused UIPI returns its
// error. Syscall, fault, CPUID, #VE and UIPI traps reach it on the task's
// own goroutine (Env.trap), so a trap that returns to the same task costs
// no goroutine switch. Preemption, Exit and Fatal reach it on the
// scheduler's, through the task's yield (dispatch). On the task's
// goroutine, reapIfZombie only reports the zombie; the scheduler reaps it
// once the task has yielded.
func (k *Kernel) trap(t *Task, c *cpu.Core, ev event) (end bool, err error) {
	switch ev.kind {
	case evSyscall:
		k.Stats.Syscalls++
		c.Regs.GPR[cpu.RAX] = ev.num
		c.Regs.GPR[cpu.RDI] = ev.args[0]
		c.Regs.GPR[cpu.RSI] = ev.args[1]
		c.Regs.GPR[cpu.RDX] = ev.args[2]
		c.Regs.GPR[cpu.R10] = ev.args[3]
		c.Regs.GPR[cpu.R8] = ev.args[4]
		sysSpan := k.Rec.Begin()
		c.Deliver(&cpu.Trap{Vector: cpu.VecSyscall})
		if k.Rec.Enabled() {
			k.Rec.EndSpan(sysSpan, trace.KindSyscall, trace.TrackKernel,
				"syscall/"+strconv.FormatUint(ev.num, 10))
		}
		if t.reapIfZombie() || t.State == TaskBlocked {
			// A blocked (futex) task's waker stores its return value.
			return true, nil
		}
		if k.wantResched {
			k.wantResched = false
			t.pendingResume = c.Regs.GPR[cpu.RAX]
			k.runq = append(k.runq, t)
			return true, nil
		}
		return false, nil

	case evFault:
		pf := &pfTrap{fault: paging.Fault{Reason: paging.FaultNotPresent, Addr: ev.va, Kind: ev.access}}
		pf.Vector = cpu.VecPF
		pf.Fault = &pf.fault
		pfSpan := k.Rec.Begin()
		c.Deliver(&pf.Trap)
		k.Rec.EndSpan(pfSpan, trace.KindPageFault, trace.TrackKernel, "")
		return t.reapIfZombie(), nil

	case evPreempt:
		k.Stats.TimerTicks++
		k.Rec.Emit(trace.KindTimerTick, trace.TrackKernel, "")
		c.Deliver(&cpu.Trap{Vector: cpu.VecTimer})
		if !t.reapIfZombie() {
			// Round-robin: requeue and pick the next task.
			t.pendingResume = nil
			k.runq = append(k.runq, t)
		}
		return true, nil

	case evCPUID:
		c.Regs.GPR[cpu.RAX] = ev.num
		if k.M.TD {
			// cpuid in a TD traps to the TDX module, which injects #VE.
			k.Stats.VEExits++
			k.TDX.InjectVE(c, "cpuid")
		} else {
			// Plain guest: cpuid executes natively.
			c.Regs.GPR[cpu.RAX] = 0x16
			c.Regs.GPR[cpu.RBX] = 0x756e6547
			c.Regs.GPR[cpu.RDX] = 0x49656e69
			c.Regs.GPR[cpu.RCX] = 0x6c65746e
		}
		return t.reapIfZombie(), nil

	case evUIPI:
		// senduipi from user mode: hardware checks IA32_UINTR_TT.
		if tr := c.SendUIPI(ev.num); tr != nil {
			c.Deliver(tr)
			return t.reapIfZombie(), fmt.Errorf("senduipi: %s", tr.Detail)
		}
		return false, nil

	case evVE:
		// A virtualization exception raised by guest activity the host
		// must service (MMIO, forced exits).
		c.Deliver(&cpu.Trap{Vector: cpu.VecVE, Detail: ev.detail})
		return t.reapIfZombie(), nil

	case evFatal:
		t.exitLocked(ev.code, ev.detail)
		if t.P.Sandbox != 0 && k.Mode == ModeErebor && k.Mon != nil {
			// Scrub-and-kill through the monitor so the failure is
			// contained exactly like any other sandbox violation.
			k.Mon.EMCKillSandbox(c, t.P.Sandbox, ev.detail)
		}
		return true, nil

	case evExit:
		t.exitLockedNoKill(ev.code, "")
		return true, nil
	}
	return true, nil // evNone: the slice has ended
}

// exitLockedNoKill marks a task zombie without killing the coroutine (used
// when the coroutine is completing on its own).
func (t *Task) exitLockedNoKill(code int, reason string) {
	if t.State == TaskZombie {
		return
	}
	t.State = TaskZombie
	t.ExitCode = code
	t.ExitReason = reason
	t.P.threads--
}

// wake marks a blocked task runnable with a syscall return value.
func (k *Kernel) wake(t *Task, ret uint64) {
	if t.State != TaskBlocked {
		return
	}
	t.State = TaskRunnable
	t.pendingResume = ret
	k.runq = append(k.runq, t)
}

// interruptHandler is the kernel's handler for external interrupts (after
// the monitor's gate in Erebor mode).
func (k *Kernel) interruptHandler(c *cpu.Core, t *cpu.Trap) {
	if t.Vector == cpu.VecTimer && k.ReclaimPerTick > 0 {
		k.reclaimTick(c)
	}
}

// exceptionHandler services faults and kills tasks on unrecoverable traps.
func (k *Kernel) exceptionHandler(c *cpu.Core, tr *cpu.Trap) {
	cur := k.current
	switch tr.Vector {
	case cpu.VecPF:
		k.handlePageFault(c, tr, cur)
	case cpu.VecVE:
		k.handleVE(c, tr)
	default:
		if cur != nil {
			cur.exitLocked(128+int(tr.Vector), tr.Error())
		}
	}
}

// handlePageFault demand-pages VMA-backed memory.
func (k *Kernel) handlePageFault(c *cpu.Core, tr *cpu.Trap, cur *Task) {
	if cur == nil {
		panic("kernel: page fault with no current task: " + tr.Error())
	}
	k.M.PushFrame("kernel/page-fault")
	defer k.M.PopFrame()
	k.Stats.PageFaults++
	va := paging.PageBase(tr.Fault.Addr)
	var vma *VMA
	for _, v := range cur.P.VMAs {
		if va >= v.Start && va < v.End {
			vma = v
			break
		}
	}
	if vma == nil {
		if cur.P.Sandbox != 0 && k.Mode == ModeErebor {
			// Sandbox common-region demand paging: the monitor forwarded
			// the fault metadata; the kernel accounts for it and requests
			// the mapping back through an EMC.
			k.M.Clock.Charge(costs.FaultHandlerBase)
			err := k.Mon.EMCMapSandboxFault(c, cur.P.AS.ASID, va, tr.Fault.Kind == paging.Write)
			if err != nil {
				cur.exitLocked(139, "common mapping denied: "+err.Error())
			}
			return
		}
		cur.exitLocked(139, fmt.Sprintf("segfault at %#x", tr.Fault.Addr))
		return
	}
	if tr.Fault.Kind == paging.Write && !vma.Writable {
		cur.exitLocked(139, fmt.Sprintf("write to read-only vma at %#x", tr.Fault.Addr))
		return
	}
	k.M.Clock.Charge(costs.FaultHandlerBase)
	f, err := k.M.Phys.Alloc(cur.P.Owner)
	if err != nil {
		cur.exitLocked(137, "out of memory: "+err.Error())
		return
	}
	if err := k.M.Phys.Zero(f); err != nil {
		cur.exitLocked(137, err.Error())
		return
	}
	k.M.Clock.Charge(costs.PageZero)
	if vma.Backing != nil {
		// File-backed fault: fill the page from the backing store.
		off := vma.BackingOff + int(va-vma.Start)
		b, _ := k.M.Phys.Bytes(f)
		if off < len(vma.Backing.Data) {
			n := copy(b, vma.Backing.Data[off:])
			k.M.Clock.Charge(costs.Copy(n))
		}
	}
	// The install and its PTE bookkeeping (accessed/dirty, LRU) are two PTE
	// updates: trivial natively, and under Erebor a second EMC round unless
	// the ring drains both at once, which is why the paper observes ~3.3
	// EMCs per context switch in fault-heavy runs (§9.1). The mapping is
	// live when the handler returns: the faulting access retries at once.
	flags := monitor.MapFlags{Writable: vma.Writable, Exec: vma.Exec}
	k.reqs = append(k.reqs[:0],
		monitor.RingReq{Op: monitor.OpMap, VA: va, Frame: f, Flags: flags},
		monitor.RingReq{Op: monitor.OpProtect, VA: va, Flags: flags})
	switch n, err := k.priv.Submit(c, cur.P.AS, k.reqs); {
	case err == nil:
	case n == 0:
		_ = k.M.Phys.Free(f)
		cur.exitLocked(139, "mapping denied: "+err.Error())
	default:
		cur.exitLocked(139, "pte update denied: "+err.Error())
	}
}

// handleVE services virtualization exceptions for non-sandboxed contexts:
// the kernel performs the vmcall the host requires (cpuid emulation).
func (k *Kernel) handleVE(c *cpu.Core, tr *cpu.Trap) {
	if tr.Detail != "cpuid" {
		if k.current != nil {
			k.current.exitLocked(128, "unexpected #VE: "+tr.Detail)
		}
		return
	}
	leaf := c.Regs.GPR[cpu.RAX]
	ret, err := k.priv.VMCall(c, 1 /* tdx.VMCallCPUID */, []uint64{leaf}, nil, nil)
	if err != nil || len(ret) < 4 {
		return
	}
	c.Regs.GPR[cpu.RAX] = ret[0]
	c.Regs.GPR[cpu.RBX] = ret[1]
	c.Regs.GPR[cpu.RCX] = ret[2]
	c.Regs.GPR[cpu.RDX] = ret[3]
}

// --- Env: the user-side API ------------------------------------------------------

// Env is the handle user task functions use to interact with the simulated
// machine: syscalls, cycle charging (compute), and memory access through
// the task's page tables.
type Env struct {
	K *Kernel
	T *Task
	y *task.Yield
}

// Charge burns n cycles of user compute, yielding to the scheduler at
// quantum boundaries. A call longer than TimerQuantum is charged one
// quantum at a time, checking the slice end after each, so a task sees the
// same timer ticks however it splits its compute.
func (e *Env) Charge(n uint64) {
	for {
		chunk := min(n, TimerQuantum)
		// A leaf frame: nothing stays pushed into the quantum check, so a
		// preemption yield never suspends the task goroutine inside a frame.
		e.K.M.Clock.ChargeFrame("user/compute", chunk)
		e.checkSignals()
		if e.K.M.Clock.Now() >= e.K.sliceEnd {
			e.yield(event{kind: evPreempt})
		}
		if n -= chunk; n == 0 {
			return
		}
	}
}

// trap raises ev, and the kernel services it right here on the task's
// goroutine. The task yields to the scheduler only when the trap ends its
// slice; trap then returns what its next slice resumes with (a syscall's
// return value) in place of RAX. Otherwise it returns RAX, RBX, RCX and
// RDX as the kernel left them. A killed task's trap never reaches the
// kernel, and an exited task's trap is dropped, as the scheduler's exit
// loop always dropped it.
func (e *Env) trap(ev event) (regs [4]uint64, err error) {
	e.y.CheckKill()
	if e.T.State == TaskZombie {
		return regs, nil
	}
	c := e.K.core()
	end, err := e.service(c, ev)
	if end {
		regs[0], _ = e.y.Yield(nil).(uint64)
		return regs, err
	}
	r := &c.Regs.GPR
	return [4]uint64{r[cpu.RAX], r[cpu.RBX], r[cpu.RCX], r[cpu.RDX]}, err
}

// service runs the kernel's handler for ev. A panic in it is the kernel's,
// not the task's: it goes to the scheduler, which re-raises it.
func (e *Env) service(c *cpu.Core, ev event) (end bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			e.y.Yield(handlerPanic{r})
		}
	}()
	return e.K.trap(e.T, c, ev)
}

// yield hands ev to the scheduler, which services it as the task's slice
// ends.
func (e *Env) yield(ev event) {
	e.T.yielded = ev
	e.y.Yield(nil)
}

// Syscall issues a system call (up to five arguments) and returns RAX.
func (e *Env) Syscall(num uint64, args ...uint64) uint64 {
	ev := event{kind: evSyscall, num: num}
	copy(ev.args[:], args)
	regs, _ := e.trap(ev)
	e.checkSignals()
	return regs[0]
}

// Exit terminates the calling task.
func (e *Env) Exit(code int) {
	e.yield(event{kind: evExit, code: code})
}

// CPUID executes cpuid (in a TD this traps via #VE, §6.2).
func (e *Env) CPUID(leaf uint64) [4]uint64 {
	regs, _ := e.trap(event{kind: evCPUID, num: leaf})
	return regs
}

// ForceVE is an adversary hook for the C8 security tests, which probe the
// kill policy with it. It triggers a non-cpuid virtualization exception
// (an MMIO-style VM exit) from user context.
func (e *Env) ForceVE(detail string) {
	e.trap(event{kind: evVE, detail: detail})
}

// SendUIPI attempts a user-mode interrupt (AV3 probe).
func (e *Env) SendUIPI(target uint64) error {
	_, err := e.trap(event{kind: evUIPI, num: target})
	return err
}

func (e *Env) checkSignals() {
	for len(e.T.pendingSigs) > 0 {
		sig := e.T.pendingSigs[0]
		e.T.pendingSigs = e.T.pendingSigs[1:]
		e.K.Stats.Signals++
		if h := e.T.P.sigHandlers[sig]; h != nil {
			e.K.M.Clock.Charge(costs.ExceptionDelivery) // user trampoline cost
			h(e, sig)
		}
	}
}

// Touch demand-pages [va, va+n) for the given access kind.
func (e *Env) Touch(va paging.Addr, n int, write bool) {
	kind := paging.Read
	if write {
		kind = paging.Write
	}
	end := va + paging.Addr(n)
	for p := paging.PageBase(va); p < end; p += mem.PageSize {
		for {
			pte, _, r := e.T.P.AS.tables.Lookup(p)
			if r == paging.FaultNone && (!write || pte.Is(paging.Writable)) {
				break
			}
			e.trap(event{kind: evFault, va: p, access: kind})
		}
	}
}

// WriteMem stores buf at va through the task's address space with user
// permissions, faulting pages in as needed.
func (e *Env) WriteMem(va paging.Addr, buf []byte) {
	e.Touch(va, len(buf), true)
	c := e.K.core()
	if t := c.Store(va, buf); t != nil {
		// Post-touch store should only fail for permission violations;
		// surface them as a fault event (the kernel/monitor decides).
		e.trap(event{kind: evFault, va: paging.PageBase(t.Fault.Addr), access: t.Fault.Kind})
	}
}

// ReadMem loads len(buf) bytes from va.
func (e *Env) ReadMem(va paging.Addr, buf []byte) {
	e.Touch(va, len(buf), false)
	c := e.K.core()
	if t := c.Load(va, buf); t != nil {
		e.trap(event{kind: evFault, va: paging.PageBase(t.Fault.Addr), access: t.Fault.Kind})
	}
}

// Page returns the backing bytes of the (already touched) page containing
// va. Compute kernels use it to operate on simulated memory in place; the
// caller charges cycles for the work it performs.
func (e *Env) Page(va paging.Addr) []byte {
	e.Touch(va, 1, false)
	f, ok := e.T.P.AS.Translate(va)
	if !ok {
		panic(fmt.Sprintf("kernel: Page(%#x) not mapped after touch", va))
	}
	b, err := e.K.M.Phys.Bytes(f)
	if err != nil {
		panic(err)
	}
	return b
}

// --- syscall sugar ----------------------------------------------------------------

// Mmap maps n bytes of anonymous memory and returns its base.
func (e *Env) Mmap(n int, writable, exec bool) paging.Addr {
	w, x := uint64(0), uint64(0)
	if writable {
		w = 1
	}
	if exec {
		x = 1
	}
	return paging.Addr(e.Syscall(abi.SysMmap, uint64(n), w, x))
}

// MmapFile maps n bytes backed by the open file fd (read-only page-cache
// mapping; evictable under memory pressure).
func (e *Env) MmapFile(fd uint64, n int) paging.Addr {
	return paging.Addr(e.Syscall(abi.SysMmap, uint64(n), 0, 0, fd+1))
}

// Munmap unmaps [va, va+n).
func (e *Env) Munmap(va paging.Addr, n int) uint64 {
	return e.Syscall(abi.SysMunmap, uint64(va), uint64(n))
}

// Brk grows the heap by n bytes, returning the old break.
func (e *Env) Brk(n int) paging.Addr {
	return paging.Addr(e.Syscall(abi.SysBrk, uint64(n)))
}

// Fork creates a child process with a copy of this address space running
// childFn. Returns the child pid. (The simulation cannot clone a Go
// closure's state, so the child's behaviour is supplied explicitly; the
// *cost* of fork — duplicating the address space through the MMU interface
// — is fully modeled, which is what the paper measures.)
func (e *Env) Fork(childFn func(e *Env)) Pid {
	e.K.pendingForkFn = childFn
	return Pid(e.Syscall(abi.SysFork))
}

// SpawnThread creates a thread sharing this process (clone).
func (e *Env) SpawnThread(name string, fn func(e *Env)) Pid {
	e.K.pendingForkFn = fn
	e.K.pendingThreadName = name
	return Pid(e.Syscall(abi.SysClone))
}

// Yield gives up the remainder of the time slice.
func (e *Env) YieldCPU() { e.Syscall(abi.SysYield) }

// Fatal terminates the calling task with a typed exit reason instead of
// panicking out of the coroutine. If the task hosts a sandbox, the monitor
// kills and scrubs it (the normal violation path), so a library failure
// inside a spawned task surfaces as a typed session error, never a panic.
// Fatal does not return.
func (e *Env) Fatal(code int, reason string) {
	e.yield(event{kind: evFatal, code: code, detail: reason})
	// The scheduler kills the coroutine at that yield; resuming here is a
	// scheduler bug.
	panic("kernel: Fatal task resumed after termination")
}
