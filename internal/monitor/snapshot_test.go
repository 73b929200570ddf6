package monitor

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/audit"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/paging"
)

const snapBase = paging.Addr(0x1_0000)

// makeTemplate boots a minimal sandbox — npages of confined memory filled
// with a recognizable pattern (boot-time state, not client data) — and
// freezes it into a template, returning the template ID.
func makeTemplate(t *testing.T, mon *Monitor, npages uint64) TemplateID {
	t.Helper()
	c := mon.M.Cores[0]
	asid, err := mon.EMCCreateAS(c, mem.OwnerTaskBase)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := mon.EMCCreateSandbox(c, asid, npages+4)
	if err != nil {
		t.Fatal(err)
	}
	if err := declareConfined(mon, c, sb, snapBase, npages, false); err != nil {
		t.Fatal(err)
	}
	for p := uint64(0); p < npages; p++ {
		if err := mon.writeSandbox(mon.sandboxes[sb], snapBase+paging.Addr(p*mem.PageSize),
			templatePage(p)); err != nil {
			t.Fatal(err)
		}
	}
	tid, err := mon.EMCSnapshotSandbox(c, sb, "test-template")
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.EMCDestroyAS(c, asid); err != nil {
		t.Fatal(err)
	}
	return tid
}

// templatePage is the deterministic boot-time content of template page p.
func templatePage(p uint64) []byte {
	b := make([]byte, 64)
	for i := range b {
		b[i] = byte(0xA0 + p + uint64(i)*3)
	}
	return b
}

// forkOne instantiates a fork of tid in a fresh address space.
func forkOne(t *testing.T, mon *Monitor, tid TemplateID, owner mem.Owner) (ASID, SandboxID) {
	t.Helper()
	c := mon.M.Cores[0]
	asid, err := mon.EMCCreateAS(c, owner)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := mon.EMCForkSandbox(c, asid, tid)
	if err != nil {
		t.Fatal(err)
	}
	return asid, sb
}

// refcounts reads every template frame's refcount in declare order.
func refcounts(t *testing.T, mon *Monitor, tid TemplateID) []uint32 {
	t.Helper()
	tmpl := mon.templates[tid]
	if tmpl == nil {
		t.Fatalf("template %d not registered", tid)
	}
	out := make([]uint32, len(tmpl.frames))
	for i, f := range tmpl.frames {
		n, err := mon.M.Phys.RefCount(f)
		if err != nil {
			t.Fatalf("refcount frame %d: %v", f, err)
		}
		out[i] = n
	}
	return out
}

func auditClean(t *testing.T, mon *Monitor, when string) {
	t.Helper()
	if vs := mon.Audit(); len(vs) != 0 {
		t.Fatalf("audit %s: %v", when, vs)
	}
	if err := recordsDisagree(mon); err != nil {
		t.Fatalf("records %s: %v", when, err)
	}
}

// TestSnapshotFreezesAndRetires: snapshot moves the confined frames into the
// template registry at refcount baseline 1, retires the source identity, and
// leaves the invariant sweep clean.
func TestSnapshotFreezesAndRetires(t *testing.T) {
	mon := bootedMonitor(t)
	tid := makeTemplate(t, mon, 4)
	info, ok := mon.TemplateInfo(tid)
	if !ok || info.Pages != 4 || info.Forks != 0 {
		t.Fatalf("TemplateInfo = %+v ok=%v, want 4 pages, 0 forks", info, ok)
	}
	for i, n := range refcounts(t, mon, tid) {
		if n != 1 {
			t.Errorf("template frame %d refcount = %d, want baseline 1", i, n)
		}
	}
	for _, f := range mon.templates[tid].frames {
		if mon.roles[f].kind == roleConfined {
			t.Errorf("frame %d still confined in the frame index after snapshot", f)
		}
		meta, err := mon.M.Phys.Meta(f)
		if err != nil || !meta.Pinned {
			t.Errorf("frame %d not pinned after snapshot (meta=%+v err=%v)", f, meta, err)
		}
	}
	auditClean(t, mon, "after snapshot")
}

// TestSnapshotDenials locks the preconditions down: no client data, no
// queued input, no live channel, no fork-of-fork, no template destroy
// while a fork lives, and no fork into an occupied or unknown target.
func TestSnapshotDenials(t *testing.T) {
	mon := bootedMonitor(t)
	c := mon.M.Cores[0]

	asid, _ := mon.EMCCreateAS(c, mem.OwnerTaskBase)
	sb, _ := mon.EMCCreateSandbox(c, asid, 8)
	if err := declareConfined(mon, c, sb, snapBase, 2, false); err != nil {
		t.Fatal(err)
	}
	if err := mon.QueueClientInput(sb, []byte("client bytes")); err != nil {
		t.Fatal(err)
	}
	if _, err := mon.EMCSnapshotSandbox(c, sb, "queued"); err == nil {
		t.Fatal("snapshot accepted with client input queued")
	}
	mon.sandboxes[sb].pendingInput = nil
	mon.sandboxes[sb].dataInstalled = true
	if _, err := mon.EMCSnapshotSandbox(c, sb, "installed"); err == nil {
		t.Fatal("snapshot accepted after data install")
	}
	mon.sandboxes[sb].dataInstalled = false

	tid := makeTemplate(t, mon, 2)
	fasid, fsb := forkOne(t, mon, tid, mem.OwnerTaskBase+1)
	if _, err := mon.EMCSnapshotSandbox(c, fsb, "fork-of-fork"); err == nil {
		t.Fatal("snapshot accepted for a forked sandbox")
	}
	if err := mon.EMCDestroyTemplate(c, tid); err == nil {
		t.Fatal("template destroyed while a fork is live")
	}
	// A second sandbox cannot fork into an occupied address space.
	if _, err := mon.EMCForkSandbox(c, fasid, tid); err == nil {
		t.Fatal("fork accepted into an AS already hosting a sandbox")
	}
	if _, err := mon.EMCForkSandbox(c, asid, TemplateID(999)); err == nil {
		t.Fatal("fork accepted from an unknown template")
	}
}

// TestForkSharesThenDiverges is the CoW core: N forks read identical
// template bytes through shared frames; each fork's first write breaks only
// its own pages, after which the forks are byte-divergent while the template
// image — and every other fork's view — stays intact.
func TestForkSharesThenDiverges(t *testing.T) {
	mon := bootedMonitor(t)
	const npages, nforks = 4, 3
	tid := makeTemplate(t, mon, npages)

	sbs := make([]SandboxID, nforks)
	for i := range sbs {
		_, sbs[i] = forkOne(t, mon, tid, mem.OwnerTaskBase+mem.Owner(1+i))
	}
	if info, _ := mon.TemplateInfo(tid); info.Forks != nforks {
		t.Fatalf("TemplateInfo.Forks = %d, want %d", info.Forks, nforks)
	}
	for i, n := range refcounts(t, mon, tid) {
		if n != 1+nforks {
			t.Errorf("frame %d refcount = %d after %d forks, want %d", i, n, nforks, 1+nforks)
		}
	}
	// Every fork reads the template image through the shared frames.
	buf := make([]byte, 64)
	for i, sb := range sbs {
		for p := uint64(0); p < npages; p++ {
			if err := mon.readSandbox(mon.sandboxes[sb], snapBase+paging.Addr(p*mem.PageSize), buf); err != nil {
				t.Fatalf("fork %d read page %d: %v", i, p, err)
			}
			if !bytes.Equal(buf, templatePage(p)) {
				t.Fatalf("fork %d page %d diverged before any write", i, p)
			}
		}
	}
	auditClean(t, mon, "with shared read-only mappings live")

	// Write storm: fork i overwrites page i with its own bytes.
	for i, sb := range sbs {
		mine := bytes.Repeat([]byte{byte(0x10 + i)}, 64)
		if err := mon.writeSandbox(mon.sandboxes[sb], snapBase+paging.Addr(uint64(i)*mem.PageSize), mine); err != nil {
			t.Fatalf("fork %d write: %v", i, err)
		}
	}
	if mon.Stats.CowBreaks != nforks {
		t.Errorf("CowBreaks = %d, want %d (one per writing fork)", mon.Stats.CowBreaks, nforks)
	}
	// Divergence is strictly private: fork i sees its bytes on page i, the
	// pristine template bytes everywhere else — including on pages other
	// forks have broken.
	for i, sb := range sbs {
		for p := uint64(0); p < npages; p++ {
			if err := mon.readSandbox(mon.sandboxes[sb], snapBase+paging.Addr(p*mem.PageSize), buf); err != nil {
				t.Fatalf("fork %d read page %d: %v", i, p, err)
			}
			want := templatePage(p)
			if p == uint64(i) {
				want = bytes.Repeat([]byte{byte(0x10 + i)}, 64)
			}
			if !bytes.Equal(buf, want) {
				t.Fatalf("fork %d page %d = %x..., want %x...", i, p, buf[:4], want[:4])
			}
		}
	}
	// Broken pages dropped their template reference; untouched pages kept it.
	for i, n := range refcounts(t, mon, tid) {
		want := uint32(1 + nforks)
		if i < nforks {
			want-- // page i was broken by exactly one fork
		}
		if n != want {
			t.Errorf("frame %d refcount = %d after write storm, want %d", i, n, want)
		}
	}
	auditClean(t, mon, "after write storm")
}

// TestForkRefcountLifecycle drives the full cycle: fork, touch, destroy each
// fork (refcounts return to the baseline 1), then destroy the template
// (frames freed) — audit-clean at every stage.
func TestForkRefcountLifecycle(t *testing.T) {
	mon := bootedMonitor(t)
	c := mon.M.Cores[0]
	const npages, nforks = 3, 3
	tid := makeTemplate(t, mon, npages)

	asids := make([]ASID, nforks)
	sbs := make([]SandboxID, nforks)
	for i := range sbs {
		asids[i], sbs[i] = forkOne(t, mon, tid, mem.OwnerTaskBase+mem.Owner(1+i))
		// Touch: read one shared page (installs a read-only mapping) and
		// break another (private copy).
		if err := mon.readSandbox(mon.sandboxes[sbs[i]], snapBase, make([]byte, 8)); err != nil {
			t.Fatal(err)
		}
		if err := mon.writeSandbox(mon.sandboxes[sbs[i]], snapBase+mem.PageSize, []byte("tenant")); err != nil {
			t.Fatal(err)
		}
	}
	for i := range sbs {
		if err := mon.EMCSandboxEnd(c, sbs[i]); err != nil {
			t.Fatalf("end fork %d: %v", i, err)
		}
		if err := mon.EMCDestroyAS(c, asids[i]); err != nil {
			t.Fatalf("destroy AS %d: %v", i, err)
		}
	}
	for i, n := range refcounts(t, mon, tid) {
		if n != 1 {
			t.Errorf("frame %d refcount = %d after all forks died, want baseline 1", i, n)
		}
	}
	if info, _ := mon.TemplateInfo(tid); info.Forks != 0 {
		t.Errorf("TemplateInfo.Forks = %d after teardown, want 0", info.Forks)
	}
	auditClean(t, mon, "after fork teardown")

	frames := append([]mem.Frame(nil), mon.templates[tid].frames...)
	if err := mon.EMCDestroyTemplate(c, tid); err != nil {
		t.Fatalf("destroy template: %v", err)
	}
	if _, ok := mon.TemplateInfo(tid); ok {
		t.Error("template still registered after destroy")
	}
	for _, f := range frames {
		meta, err := mon.M.Phys.Meta(f)
		if err != nil {
			t.Fatalf("meta frame %d: %v", f, err)
		}
		if meta.Allocated || meta.Pinned {
			t.Errorf("frame %d not released after template destroy: %+v", f, meta)
		}
	}
	auditClean(t, mon, "after template destroy")
}

// TestForkIdentityFresh: a fork is a new sandbox identity — fresh ID, its
// own attestable state — not a resurrection of the snapshotted one.
func TestForkIdentityFresh(t *testing.T) {
	mon := bootedMonitor(t)
	tid := makeTemplate(t, mon, 2)
	_, a := forkOne(t, mon, tid, mem.OwnerTaskBase+1)
	_, b := forkOne(t, mon, tid, mem.OwnerTaskBase+2)
	if a == b {
		t.Fatal("two forks share a sandbox ID")
	}
	ia, ok := mon.SandboxInfo(a)
	if !ok || ia.Destroyed {
		t.Fatalf("fork %d not live: %+v", a, ia)
	}
}

// TestWatchdogCatchesRefcountDrift: I9 end to end. An injected extra
// reference on a shared template frame must surface as CowRefcountMismatch
// on the next sweep (severity "injected", CI gate untripped); an unannounced
// one must count as a real violation.
func TestWatchdogCatchesRefcountDrift(t *testing.T) {
	mon := bootedMonitor(t)
	mon.EnableWatchdog(1 << 30)
	tid := makeTemplate(t, mon, 2)
	forkOne(t, mon, tid, mem.OwnerTaskBase+1)

	mon.wdSweep("baseline")
	if n := mon.WatchdogNonInjected(); n != 0 {
		t.Fatalf("clean state flagged %d violations: %v", n, mon.WatchdogEvents())
	}

	code, err := mon.InjectRefcountViolation()
	if err != nil {
		t.Fatal(err)
	}
	if code != audit.CowRefcountMismatch {
		t.Fatalf("injected code = %v", code)
	}
	mon.wdSweep("inject")
	events := mon.WatchdogEvents()
	if len(events) == 0 {
		t.Fatal("watchdog missed the injected refcount drift")
	}
	last := events[len(events)-1]
	if last.Code != audit.CowRefcountMismatch.String() || last.Severity != "injected" {
		t.Fatalf("event = %+v, want injected %v", last, audit.CowRefcountMismatch)
	}
	if n := mon.WatchdogNonInjected(); n != 0 {
		t.Fatalf("injected violation tripped the CI gate (%d non-injected)", n)
	}

	// Undo the announced drift, then drift for real — unannounced.
	tmpl := mon.templates[tid]
	var lowest mem.Frame
	for i, f := range tmpl.frames {
		if i == 0 || f < lowest {
			lowest = f
		}
	}
	if _, err := mon.M.Phys.DecRef(lowest); err != nil {
		t.Fatal(err)
	}
	delete(mon.wd.injected, audit.CowRefcountMismatch)
	if err := mon.M.Phys.IncRef(tmpl.frames[len(tmpl.frames)-1]); err != nil {
		t.Fatal(err)
	}
	mon.wdSweep("real-drift")
	if n := mon.WatchdogNonInjected(); n == 0 {
		t.Fatal("unannounced refcount drift not counted as a real violation")
	}
	if !audit.Contains(mon.Audit(), audit.CowRefcountMismatch) {
		t.Fatal("audit sweep missed the drifted frame")
	}
}

// TestForkWritableSharedCaught: forcing a writable PTE onto a shared
// template frame (the monitor-bug I9 exists to catch) must surface as
// CowWritableShared.
func TestForkWritableSharedCaught(t *testing.T) {
	mon := bootedMonitor(t)
	tid := makeTemplate(t, mon, 2)
	asid, sb := forkOne(t, mon, tid, mem.OwnerTaskBase+1)
	// Install the shared read-only mapping, then tamper it writable behind
	// the monitor's back.
	if err := mon.readSandbox(mon.sandboxes[sb], snapBase, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	as := mon.addrSpaces[asid]
	pte, _, _ := as.tables.Walk(snapBase)
	if err := as.tables.Map(snapBase, pte|paging.Writable); err != nil {
		t.Fatal(err)
	}
	if !audit.Contains(mon.Audit(), audit.CowWritableShared) {
		t.Fatalf("writable shared mapping not flagged: %v", mon.Audit())
	}
}

// TestForkChainsAcrossTemplates: templates are independent — two templates'
// forks interleave without sharing frames or refcounts.
func TestForkChainsAcrossTemplates(t *testing.T) {
	mon := bootedMonitor(t)
	t1 := makeTemplate(t, mon, 2)
	t2 := makeTemplate(t, mon, 2)
	forkOne(t, mon, t1, mem.OwnerTaskBase+1)
	forkOne(t, mon, t2, mem.OwnerTaskBase+2)
	forkOne(t, mon, t1, mem.OwnerTaskBase+3)
	for i, n := range refcounts(t, mon, t1) {
		if n != 3 {
			t.Errorf("t1 frame %d refcount = %d, want 3 (baseline + 2 forks)", i, n)
		}
	}
	for i, n := range refcounts(t, mon, t2) {
		if n != 2 {
			t.Errorf("t2 frame %d refcount = %d, want 2 (baseline + 1 fork)", i, n)
		}
	}
	seen := make(map[mem.Frame]TemplateID)
	for _, tid := range []TemplateID{t1, t2} {
		for _, f := range mon.templates[tid].frames {
			if other, dup := seen[f]; dup {
				t.Fatalf("frame %d shared between templates %d and %d", f, other, tid)
			}
			seen[f] = tid
		}
	}
	auditClean(t, mon, fmt.Sprintf("with %d live templates", 2))
}
