// Package task provides goroutine-backed coroutines with strict token
// handoff: at most one task (or its scheduler) runs at any time, and
// control moves only at explicit Yield/Resume points. The simulated kernel
// and LibOS build their schedulers on this, which keeps every interleaving
// — and therefore every experiment — deterministic.
package task

import (
	"errors"
	"fmt"
)

// ErrKilled is delivered (via panic/recover inside the coroutine) when a
// task is killed while suspended; the coroutine's deferred cleanup runs.
var ErrKilled = errors.New("task: killed")

type yieldMsg struct {
	val  any
	done bool
	err  error
}

// Task is one coroutine.
type Task struct {
	Name string

	resume chan any
	yield  chan yieldMsg
	kill   chan struct{}

	finished bool
	err      error
	running  bool // true while Resume has handed control to the coroutine
}

// Yield is the task-side handle for handing control back to the scheduler.
type Yield struct{ t *Task }

type killSignal struct{}

// Start creates a coroutine around fn. The function does not run until the
// first Resume.
func Start(name string, fn func(y *Yield)) *Task {
	t := &Task{
		Name:   name,
		resume: make(chan any),
		yield:  make(chan yieldMsg),
		kill:   make(chan struct{}),
	}
	go func() {
		// Wait for the first Resume (its input value is discarded).
		select {
		case <-t.resume:
		case <-t.kill:
			t.yield <- yieldMsg{done: true, err: ErrKilled}
			return
		}
		defer func() {
			if r := recover(); r != nil {
				if _, isKill := r.(killSignal); isKill {
					t.yield <- yieldMsg{done: true, err: ErrKilled}
					return
				}
				t.yield <- yieldMsg{done: true, err: fmt.Errorf("task %q panicked: %v", name, r)}
				return
			}
			t.yield <- yieldMsg{done: true}
		}()
		fn(&Yield{t})
	}()
	return t
}

// Resume transfers control into the task, delivering in as the return
// value of its pending Yield. It returns the task's next yielded value,
// whether the task has finished, and its terminal error if so.
func (t *Task) Resume(in any) (out any, done bool, err error) {
	if t.finished {
		return nil, true, t.err
	}
	t.running = true
	t.resume <- in
	msg := <-t.yield
	t.running = false
	if msg.done {
		t.finished = true
		t.err = msg.err
	}
	return msg.val, msg.done, msg.err
}

// Kill terminates a suspended task: its next scheduling point raises an
// internal kill panic so deferred cleanup runs, and the task finishes with
// ErrKilled. Killing a finished task is a no-op. Kill must be called from
// the scheduler side (never from inside the task).
func (t *Task) Kill() {
	if t.finished {
		return
	}
	if t.running {
		// Kill from inside the coroutine would deadlock draining it; this
		// is always a scheduler-side bug — fail loudly.
		panic("task: Kill called while the task is running (self-kill)")
	}
	close(t.kill)
	// Drain the task to completion so its goroutine exits.
	msg := <-t.yield
	for !msg.done {
		// The task may yield normally before observing the kill; keep
		// resuming with nil until it unwinds.
		t.resume <- nil
		msg = <-t.yield
	}
	t.finished = true
	t.err = msg.err
}

// Finished reports whether the task has completed.
func (t *Task) Finished() bool { return t.finished }

// Running reports whether control is currently inside the coroutine.
func (t *Task) Running() bool { return t.running }

// Err returns the terminal error (nil, ErrKilled, or a panic wrapper).
func (t *Task) Err() error { return t.err }

// CheckKill unwinds the task if it has been killed, as its next Yield
// would, without handing control to the scheduler. Work the task does on
// its own goroutine calls it first, so a killed task's deferred cleanup
// does no more than a Yield would let it.
func (y *Yield) CheckKill() {
	select {
	case <-y.t.kill:
		panic(killSignal{})
	default:
	}
}

// Yield suspends the task, delivering out to the scheduler, and returns
// the value passed to the next Resume. If the task was killed while
// suspended, Yield never returns (the coroutine unwinds).
func (y *Yield) Yield(out any) any {
	// Check kill first so a pending kill always wins over a normal yield
	// (keeps kill behaviour deterministic).
	y.CheckKill()
	select {
	case y.t.yield <- yieldMsg{val: out}:
	case <-y.t.kill:
		panic(killSignal{})
	}
	select {
	case in := <-y.t.resume:
		return in
	case <-y.t.kill:
		panic(killSignal{})
	}
}
