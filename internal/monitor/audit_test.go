package monitor

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"github.com/asterisc-release/erebor-go/internal/audit"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/paging"
)

func TestAuditCleanAfterBoot(t *testing.T) {
	mon := bootedMonitor(t)
	if v := mon.Audit(); len(v) != 0 {
		t.Fatalf("violations after boot: %v", v)
	}
}

// auditFuzzer drives the monitor with a random but well-formed sequence of
// EMC operations; the security invariants must hold after every step.
type auditFuzzer struct {
	mon      *Monitor
	asids    []ASID
	sbs      []SandboxID
	frames   []mem.Frame
	vas      map[ASID]paging.Addr
	common   int
	sharedIO []mem.Frame
}

func (f *auditFuzzer) step(op uint8, t *testing.T) {
	c := f.mon.M.Cores[0]
	switch op % 10 {
	case 0: // new address space
		if len(f.asids) >= 4 {
			return
		}
		asid, err := f.mon.EMCCreateAS(c, mem.OwnerTaskBase+mem.Owner(len(f.asids)))
		if err != nil {
			return
		}
		f.asids = append(f.asids, asid)
		f.vas[asid] = 0x10_0000
	case 1: // new sandbox on a free AS
		for _, asid := range f.asids {
			if f.mon.sandboxByAS(asid) == nil {
				sb, err := f.mon.EMCCreateSandbox(c, asid, 64)
				if err == nil {
					f.sbs = append(f.sbs, sb)
				}
				return
			}
		}
	case 2: // map an anonymous page into a (non-sandbox) AS
		if len(f.asids) == 0 {
			return
		}
		asid := f.asids[int(op/8)%len(f.asids)]
		as := f.mon.addrSpaces[asid]
		fr, err := f.mon.M.Phys.Alloc(as.owner)
		if err != nil {
			return
		}
		va := f.vas[asid]
		f.vas[asid] += mem.PageSize
		if err := f.mon.EMCUserMMU(c, asid, RingReq{Op: OpMap, VA: va, Frame: fr, Flags: MapFlags{Writable: true}}); err != nil {
			_ = f.mon.M.Phys.Free(fr)
			return
		}
		f.frames = append(f.frames, fr)
	case 3: // declare confined memory
		if len(f.sbs) == 0 {
			return
		}
		sb := f.sbs[int(op/8)%len(f.sbs)]
		va := paging.Addr(0x2000_0000) + paging.Addr(int(op)*mem.PageSize*4)
		_ = declareConfined(f.mon, c, sb, va, 2, op/10%2 == 0)
	case 4: // create + attach + seal a common region
		name := string(rune('a' + f.common%20))
		f.common++
		if err := f.mon.EMCCommonCreate(c, name, 2); err != nil {
			return
		}
		if len(f.sbs) > 0 {
			sb := f.sbs[int(op/8)%len(f.sbs)]
			_ = attachCommon(f.mon, c, sb, name, paging.Addr(0x4000_0000)+paging.Addr(f.common)*0x10_0000, op/10%2 == 0)
			if op%3 == 0 {
				f.mon.sealCommons(f.mon.M.Cores[0], f.mon.sandboxes[sb])
			}
		}
	case 5: // unmap something
		if len(f.asids) == 0 {
			return
		}
		asid := f.asids[int(op/8)%len(f.asids)]
		if f.vas[asid] > 0x10_0000 {
			_ = f.mon.EMCUserMMU(c, asid, RingReq{Op: OpUnmap, VA: f.vas[asid] - mem.PageSize})
		}
	case 6: // fault in a sandbox page via the kernel path; a write breaks a CoW share
		if len(f.sbs) == 0 {
			return
		}
		sb := f.sbs[int(op/8)%len(f.sbs)]
		state := f.mon.sandboxes[sb]
		for va := range state.pages {
			_ = f.mon.EMCMapSandboxFault(c, state.asid, va, op/10%2 == 0)
			break
		}
	case 7: // end a sandbox session
		if len(f.sbs) == 0 || op < 224 {
			return
		}
		sb := f.sbs[0]
		f.sbs = f.sbs[1:]
		_ = f.mon.EMCSandboxEnd(c, sb)
	case 8: // toggle CVM-shared on a shared-io frame, so I6 sees shared frames
		if len(f.sharedIO) < 4 {
			fr, err := f.mon.M.Phys.AllocRegion(RegionSharedIO, mem.OwnerDevice)
			if err != nil {
				return
			}
			f.sharedIO = append(f.sharedIO, fr)
		}
		fr := f.sharedIO[int(op/9)%len(f.sharedIO)]
		meta, _ := f.mon.M.Phys.Meta(fr)
		if err := f.mon.EMCMapGPA(c, fr, !meta.Shared); err != nil {
			t.Fatalf("map-gpa on shared-io frame %d: %v", fr, err)
		}
	case 9: // snapshot a cold sandbox, or fork the newest template into a free AS
		if op/10%2 == 0 {
			for i, id := range f.sbs {
				if f.mon.sandboxes[id].template == 0 {
					if _, err := f.mon.EMCSnapshotSandbox(c, id, "fuzz"); err == nil {
						f.sbs = slices.Delete(f.sbs, i, i+1)
					}
					return
				}
			}
			return
		}
		for _, asid := range f.asids {
			if f.mon.sandboxByAS(asid) == nil {
				if id, err := f.mon.EMCForkSandbox(c, asid, f.mon.nextTemplateID); err == nil {
					f.sbs = append(f.sbs, id)
				}
				return
			}
		}
	}
}

// recordsDisagree reports the first place the frame index and the page
// records disagree: every page of a live sandbox maps a frame confined to
// it, or, while CoW, a frame of its template; and every confined frame is
// held by a page of the sandbox it is confined to. It returns nil when
// they agree.
func recordsDisagree(mon *Monitor) error {
	held := make(map[SandboxID]map[mem.Frame]bool)
	for id, sb := range mon.sandboxes {
		held[id] = make(map[mem.Frame]bool)
		for va, p := range sb.pages {
			held[id][p.frame] = true
			if sb.destroyed {
				continue
			}
			want := frameRole{kind: roleConfined, sb: id}
			if p.cow {
				want = frameRole{kind: roleTemplate, tmpl: sb.template}
			}
			if got := mon.roles[p.frame]; got != want {
				return fmt.Errorf("sandbox %d page %#x: frame %d has role %+v, want %+v", id, va, p.frame, got, want)
			}
		}
	}
	for f, r := range mon.roles {
		if r.kind == roleConfined && !held[r.sb][f] {
			return fmt.Errorf("frame %d is confined to sandbox %d, whose pages do not hold it", f, r.sb)
		}
	}
	return nil
}

// confinedSandbox boots a monitor with one sandbox holding a faulted-in
// confined frame, returning the monitor, the sandbox ID and the frame.
func confinedSandbox(t testing.TB) (*Monitor, SandboxID, mem.Frame) {
	t.Helper()
	mon := bootedMonitor(t)
	c := mon.M.Cores[0]
	asid, err := mon.EMCCreateAS(c, mem.OwnerTaskBase)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := mon.EMCCreateSandbox(c, asid, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := declareConfined(mon, c, sb, 0x2000_0000, 1, false); err != nil {
		t.Fatal(err)
	}
	state := mon.sandboxes[sb]
	for va := range state.pages {
		if err := mon.EMCMapSandboxFault(c, state.asid, va, true); err != nil {
			t.Fatal(err)
		}
	}
	var frame mem.Frame
	found := false
	for f, r := range mon.roles {
		if r.kind == roleConfined && r.sb == sb {
			frame, found = f, true
			break
		}
	}
	if !found {
		t.Fatal("no confined frame materialized")
	}
	if v := mon.Audit(); len(v) != 0 {
		t.Fatalf("violations before tampering: %v", v)
	}
	return mon, sb, frame
}

// TestAuditTypedViolationCodes tampers with machine state behind the
// monitor's back and asserts the audit reports each break with its typed
// code — the contract the continuous watchdog and the JSONL event log
// build on.
func TestAuditTypedViolationCodes(t *testing.T) {
	t.Run("confined-multi-mapped", func(t *testing.T) {
		mon, sb, frame := confinedSandbox(t)
		c := mon.M.Cores[0]
		// A second, foreign mapping of a confined frame: the cross-tenant
		// leak the single-mapping invariant exists to prevent.
		asid2, err := mon.EMCCreateAS(c, mem.OwnerTaskBase+1)
		if err != nil {
			t.Fatal(err)
		}
		as2 := mon.addrSpaces[asid2]
		va := paging.Addr(0x3000_0000)
		if err := as2.tables.Map(va, paging.UserLeaf(frame, true, false)); err != nil {
			t.Fatal(err)
		}
		as2.userFrames[va] = frame
		v := mon.Audit()
		if !audit.Contains(v, audit.ConfinedMultiMapped) {
			t.Fatalf("missing ConfinedMultiMapped: %v", v)
		}
		if !audit.Contains(v, audit.ConfinedForeignMapping) {
			t.Fatalf("missing ConfinedForeignMapping: %v", v)
		}
		for _, viol := range v {
			if viol.Code == audit.ConfinedMultiMapped {
				if viol.Frame != frame {
					t.Fatalf("violation frame = %d, want %d", viol.Frame, frame)
				}
				if viol.Code.Invariant() != "I4" {
					t.Fatalf("invariant = %q, want I4", viol.Code.Invariant())
				}
			}
		}
		_ = sb
	})

	t.Run("confined-unpinned-and-shared", func(t *testing.T) {
		mon, _, frame := confinedSandbox(t)
		if err := mon.M.Phys.SetPinned(frame, false); err != nil {
			t.Fatal(err)
		}
		if err := mon.M.Phys.SetShared(frame, true); err != nil {
			t.Fatal(err)
		}
		v := mon.Audit()
		if !audit.Contains(v, audit.ConfinedUnpinned) {
			t.Fatalf("missing ConfinedUnpinned: %v", v)
		}
		if !audit.Contains(v, audit.ConfinedShared) {
			t.Fatalf("missing ConfinedShared: %v", v)
		}
		// Sharing a non-shared-io frame also breaks I6.
		if !audit.Contains(v, audit.SharedOutsideIO) {
			t.Fatalf("missing SharedOutsideIO: %v", v)
		}
	})

	t.Run("ptp-user-mapped", func(t *testing.T) {
		mon, _, _ := confinedSandbox(t)
		c := mon.M.Cores[0]
		asid2, err := mon.EMCCreateAS(c, mem.OwnerTaskBase+1)
		if err != nil {
			t.Fatal(err)
		}
		var ptp mem.Frame
		for f, r := range mon.roles {
			if r.kind == rolePTP {
				ptp = f
				break
			}
		}
		as2 := mon.addrSpaces[asid2]
		va := paging.Addr(0x3100_0000)
		if err := as2.tables.Map(va, paging.UserLeaf(ptp, false, false)); err != nil {
			t.Fatal(err)
		}
		as2.userFrames[va] = ptp
		if v := mon.Audit(); !audit.Contains(v, audit.PTPUserMapped) {
			t.Fatalf("missing PTPUserMapped: %v", v)
		}
	})

	t.Run("deterministic-order", func(t *testing.T) {
		// Violation order must be stable across audits of the same state
		// (map iteration inside the sweep is randomized; the sort is not).
		mon, _, frame := confinedSandbox(t)
		if err := mon.M.Phys.SetShared(frame, true); err != nil {
			t.Fatal(err)
		}
		if err := mon.M.Phys.SetPinned(frame, false); err != nil {
			t.Fatal(err)
		}
		first := mon.Audit()
		for i := 0; i < 8; i++ {
			again := mon.Audit()
			if len(again) != len(first) {
				t.Fatalf("audit %d: %d violations, first had %d", i, len(again), len(first))
			}
			for j := range again {
				if again[j] != first[j] {
					t.Fatalf("audit %d reordered: %v vs %v", i, again[j], first[j])
				}
			}
		}
	})
}

func TestAuditPropertyUnderRandomOps(t *testing.T) {
	mon := bootedMonitor(t)
	f := &auditFuzzer{mon: mon, vas: make(map[ASID]paging.Addr)}
	steps, sharedAudits := 0, 0
	prop := func(op uint8) bool {
		f.step(op, t)
		steps++
		if len(mon.M.Phys.SharedFrames()) > 0 {
			sharedAudits++
		}
		if v := mon.Audit(); len(v) != 0 {
			t.Logf("violations after %d steps: %v", steps, v)
			return false
		}
		if err := recordsDisagree(mon); err != nil {
			t.Logf("after %d steps: %v", steps, err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	if v := mon.Audit(); len(v) != 0 {
		t.Fatalf("final violations: %v", v)
	}
	if sharedAudits == 0 {
		t.Fatal("no audit saw a CVM-shared frame: I6 never ran over a non-empty index")
	}
	if mon.Stats.SandboxForks == 0 {
		t.Fatal("no fork ran: no check saw a CoW page")
	}
}

// BenchmarkMonitorAudit times one full watchdog sweep (I1–I9) of a booted
// monitor hosting a sandbox with faulted-in confined memory and a few
// CVM-shared I/O frames.
func BenchmarkMonitorAudit(b *testing.B) {
	mon, _, _ := confinedSandbox(b)
	c := mon.M.Cores[0]
	for i := 0; i < 8; i++ {
		f, err := mon.M.Phys.AllocRegion(RegionSharedIO, mem.OwnerDevice)
		if err != nil {
			b.Fatal(err)
		}
		if err := mon.EMCMapGPA(c, f, true); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := mon.Audit(); len(v) != 0 {
			b.Fatalf("violations: %v", v)
		}
	}
}
