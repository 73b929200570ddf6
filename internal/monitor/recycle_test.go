package monitor

import (
	"bytes"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/paging"
)

// TestRecycleSandboxRequiresQuiescence: the monitor refuses to reissue a
// sandbox whose session still has a request in flight — queued client
// input, or an installed input without a matching output. Recycling at that
// point would hand the next tenant an identity whose hosting task is still
// executing the previous tenant's request.
func TestRecycleSandboxRequiresQuiescence(t *testing.T) {
	mon := bootedMonitor(t)
	c := mon.M.Cores[0]
	owner := mem.OwnerTaskBase + 1
	asid, err := mon.EMCCreateAS(c, owner)
	if err != nil {
		t.Fatal(err)
	}
	id, err := mon.EMCCreateSandbox(c, asid, 64)
	if err != nil {
		t.Fatal(err)
	}
	sb := mon.sandboxes[id]

	sb.pendingInput = [][]byte{{0xA5}}
	if _, err := mon.EMCRecycleSandbox(c, id); err == nil {
		t.Fatal("recycle accepted with client input still queued")
	}
	sb.pendingInput = nil

	sb.InputMsgs, sb.OutputMsgs = 1, 0
	if _, err := mon.EMCRecycleSandbox(c, id); err == nil {
		t.Fatal("recycle accepted with a request in flight")
	}
	if sb.destroyed {
		t.Fatal("denied recycle destroyed the sandbox")
	}

	sb.OutputMsgs = 1
	newID, err := mon.EMCRecycleSandbox(c, id)
	if err != nil {
		t.Fatalf("recycle of a quiescent sandbox denied: %v", err)
	}
	if newID == id {
		t.Fatal("recycle reissued the same identity")
	}
}

// TestRecycleSandboxScrubsAndTransfers: EMCRecycleSandbox is the warm-pool
// core — the next tenant inherits the carcass (AS, pinned frames, PTE
// templates) but must never see the previous tenant's bytes or identity.
func TestRecycleSandboxScrubsAndTransfers(t *testing.T) {
	mon := bootedMonitor(t)
	c := mon.M.Cores[0]
	owner := mem.OwnerTaskBase + 1
	asid, err := mon.EMCCreateAS(c, owner)
	if err != nil {
		t.Fatal(err)
	}
	id, err := mon.EMCCreateSandbox(c, asid, 64)
	if err != nil {
		t.Fatal(err)
	}
	const confVA = paging.Addr(0x2000_0000)
	if err := mon.EMCDeclareConfined(c, id, confVA, 2, false); err != nil {
		t.Fatal(err)
	}
	if err := mon.EMCCommonCreate(c, "recycle-model", 1); err != nil {
		t.Fatal(err)
	}
	if err := mon.EMCCommonAttach(c, id, "recycle-model", 0x4000_0000, false); err != nil {
		t.Fatal(err)
	}

	// Tenant secret lands in a confined frame.
	sb := mon.sandboxes[id]
	secret := bytes.Repeat([]byte{0xA5}, 64)
	f0 := sb.confinedFrames[0]
	if err := mon.M.Phys.WritePhys(f0.Base(), secret); err != nil {
		t.Fatal(err)
	}

	pagesBefore := sb.usedPages
	framesBefore := append([]mem.Frame(nil), sb.confinedFrames...)

	newID, err := mon.EMCRecycleSandbox(c, id)
	if err != nil {
		t.Fatal(err)
	}
	if newID == id {
		t.Fatal("recycle reissued the same sandbox identity")
	}

	// Old identity is fully retired.
	if _, ok := mon.sandboxes[id]; ok {
		t.Fatal("old sandbox identity survived recycling")
	}
	ns := mon.sandboxes[newID]
	if ns == nil || ns.asid != asid {
		t.Fatal("recycled sandbox not rehosted on the same address space")
	}
	if got := mon.sandboxByAS(asid); got == nil || got.id != newID {
		t.Fatal("address-space index does not resolve to the new identity")
	}

	// Zero-on-recycle: every confined frame is scrubbed but stays allocated,
	// pinned, and owned (in the single-mapping index) by the new identity.
	for i, f := range ns.confinedFrames {
		if f != framesBefore[i] {
			t.Fatalf("confined frame %d replaced during recycle", i)
		}
		buf := make([]byte, mem.PageSize)
		if err := mon.M.Phys.ReadPhys(f.Base(), buf); err != nil {
			t.Fatal(err)
		}
		for _, b := range buf {
			if b != 0 {
				t.Fatalf("confined frame %d not zeroed on recycle", f)
			}
		}
		if meta, _ := mon.M.Phys.Meta(f); !meta.Pinned {
			t.Fatalf("confined frame %d lost its pin", f)
		}
		if mon.confinedOwner[f] != newID {
			t.Fatalf("confinedOwner[%d] = %d, want %d", f, mon.confinedOwner[f], newID)
		}
	}
	if ns.usedPages != pagesBefore {
		t.Fatalf("budget accounting changed: %d -> %d", pagesBefore, ns.usedPages)
	}
	if ns.dataInstalled {
		t.Fatal("recycled sandbox still marked data-installed")
	}

	// Common attachments follow the new identity.
	cr := mon.commons["recycle-model"]
	for i := range cr.attached {
		if cr.attached[i].sb == id {
			t.Fatal("common attachment still references the retired identity")
		}
	}
	found := false
	for i := range cr.attached {
		if cr.attached[i].sb == newID {
			found = true
		}
	}
	if !found {
		t.Fatal("common attachment not transferred to the new identity")
	}

	// The security audit still holds after recycling.
	if v := mon.Audit(); len(v) != 0 {
		t.Fatalf("audit violations after recycle: %v", v)
	}
}
