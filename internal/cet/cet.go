// Package cet simulates Intel Control-flow Enforcement Technology:
// indirect-branch tracking (IBT) with endbr64 landing pads and per-core
// hardware shadow stacks. Erebor relies on exactly two CET properties
// (paper §5.3): forward control flow can only land on endbr64 targets, and
// returns are checked against the shadow stack; both violations raise a
// control-protection fault (#CP).
package cet

import "fmt"

// CPError is a control-protection fault (#CP).
type CPError struct {
	Kind   string // "ibt" or "shadow-stack"
	Target uint64
	Detail string
}

func (e *CPError) Error() string {
	return fmt.Sprintf("cet: #CP (%s) target=%#x: %s", e.Kind, e.Target, e.Detail)
}

// IBT tracks the machine's valid indirect-branch targets: the set of code
// addresses whose first instruction is endbr64. Erebor guarantees that the
// *only* endbr64 in monitor memory is the start of the EMC entry gate.
type IBT struct {
	enabled bool
	targets map[uint64]bool
}

// NewIBT returns a disabled tracker with no landing pads.
func NewIBT() *IBT {
	return &IBT{targets: make(map[uint64]bool)}
}

// Enable turns tracking on (IA32_S_CET.ENDBR_EN in hardware).
func (t *IBT) Enable()       { t.enabled = true }
func (t *IBT) Enabled() bool { return t.enabled }

// MarkEndbr registers addr as carrying an endbr64 landing pad.
func (t *IBT) MarkEndbr(addr uint64) { t.targets[addr] = true }

// IndirectBranch checks an indirect call/jmp to target. With tracking
// enabled, a target without endbr64 raises #CP.
func (t *IBT) IndirectBranch(target uint64) error {
	if !t.enabled {
		return nil
	}
	if !t.targets[target] {
		return &CPError{Kind: "ibt", Target: target, Detail: "indirect branch to non-endbr64 target"}
	}
	return nil
}

// ShadowStack is one hardware shadow stack (per logical core, per task).
// Kernel shadow-stack pages are write-protected in hardware; the simulation
// models the stack as monitor-private state that deprivileged code has no
// handle to, and enforces the LIFO return-address property.
type ShadowStack struct {
	enabled bool
	frames  []uint64
	// Token emulates the supervisor shadow-stack token: the stack can be
	// active on at most one core at a time.
	busy bool
}

// NewShadowStack returns a disabled, empty stack.
func NewShadowStack() *ShadowStack {
	return &ShadowStack{}
}

func (s *ShadowStack) Enable()       { s.enabled = true }
func (s *ShadowStack) Enabled() bool { return s.enabled }

// Depth returns the number of live return addresses.
func (s *ShadowStack) Depth() int { return len(s.frames) }

// Activate claims the stack's token for a core. Claiming a busy stack is a
// #CP (two cores may not share one supervisor shadow stack).
func (s *ShadowStack) Activate() error {
	if s.busy {
		return &CPError{Kind: "shadow-stack", Detail: "token already taken"}
	}
	s.busy = true
	return nil
}

// Call pushes a return address (mirrors the data stack push at call or
// exception entry).
func (s *ShadowStack) Call(ret uint64) {
	if !s.enabled {
		return
	}
	s.frames = append(s.frames, ret)
}

// Ret verifies ret against the top of the shadow stack and pops it. A
// mismatch or an empty stack raises #CP.
func (s *ShadowStack) Ret(ret uint64) error {
	if !s.enabled {
		return nil
	}
	if len(s.frames) == 0 {
		return &CPError{Kind: "shadow-stack", Target: ret, Detail: "return with empty shadow stack"}
	}
	top := s.frames[len(s.frames)-1]
	if top != ret {
		return &CPError{Kind: "shadow-stack", Target: ret,
			Detail: fmt.Sprintf("return address mismatch (shadow has %#x)", top)}
	}
	s.frames = s.frames[:len(s.frames)-1]
	return nil
}
