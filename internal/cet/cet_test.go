package cet

import (
	"testing"
	"testing/quick"
)

func TestIBTDisabledAllowsEverything(t *testing.T) {
	ibt := NewIBT()
	if err := ibt.IndirectBranch(0x1234); err != nil {
		t.Fatal(err)
	}
}

func TestIBTEnforcesLandingPads(t *testing.T) {
	ibt := NewIBT()
	ibt.MarkEndbr(0x1000)
	ibt.Enable()
	if err := ibt.IndirectBranch(0x1000); err != nil {
		t.Fatal(err)
	}
	if err := ibt.IndirectBranch(0x1001); err == nil {
		t.Fatal("branch to non-endbr target allowed")
	}
}

func TestShadowStackLIFO(t *testing.T) {
	ss := NewShadowStack()
	ss.Enable()
	ss.Call(0x100)
	ss.Call(0x200)
	if ss.Depth() != 2 {
		t.Fatalf("depth = %d", ss.Depth())
	}
	if err := ss.Ret(0x200); err != nil {
		t.Fatal(err)
	}
	if err := ss.Ret(0x100); err != nil {
		t.Fatal(err)
	}
	if err := ss.Ret(0x100); err == nil {
		t.Fatal("underflow allowed")
	}
}

func TestShadowStackDetectsCorruptedReturn(t *testing.T) {
	ss := NewShadowStack()
	ss.Enable()
	ss.Call(0x100)
	if err := ss.Ret(0xBAD); err == nil {
		t.Fatal("mismatched return allowed")
	}
	cp, ok := ss.Ret(0xBAD).(*CPError)
	if !ok || cp.Kind != "shadow-stack" {
		t.Fatalf("wrong error type: %v", cp)
	}
}

func TestShadowStackDisabledIsTransparent(t *testing.T) {
	ss := NewShadowStack()
	ss.Call(0x1)
	if err := ss.Ret(0x999); err != nil {
		t.Fatal("disabled stack enforced returns")
	}
}

func TestShadowStackToken(t *testing.T) {
	ss := NewShadowStack()
	if err := ss.Activate(); err != nil {
		t.Fatal(err)
	}
	if err := ss.Activate(); err == nil {
		t.Fatal("two cores activated one shadow stack")
	}
}

// Property: any balanced call/ret sequence with matching addresses passes;
// the first mismatched return fails.
func TestShadowStackProperty(t *testing.T) {
	f := func(addrs []uint64) bool {
		ss := NewShadowStack()
		ss.Enable()
		for _, a := range addrs {
			ss.Call(a)
		}
		for i := len(addrs) - 1; i >= 0; i-- {
			if err := ss.Ret(addrs[i]); err != nil {
				return false
			}
		}
		return ss.Depth() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
