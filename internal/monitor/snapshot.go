package monitor

import (
	"fmt"
	"sort"

	"github.com/asterisc-release/erebor-go/internal/costs"
	"github.com/asterisc-release/erebor-go/internal/cpu"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/metrics"
	"github.com/asterisc-release/erebor-go/internal/paging"
	"github.com/asterisc-release/erebor-go/internal/trace"
)

// Sandbox snapshot/fork (ROADMAP item 1). EMCSnapshotSandbox freezes a
// booted-but-empty sandbox into an immutable template: its register image,
// page layout, confined-frame contents and common attachments. EMCForkSandbox
// then instantiates tenants from the template copy-on-write — the template's
// frames are shared read-only under a per-frame refcount, and the first write
// to a page copies it into a fresh exclusive frame (re-establishing the
// single-mapping invariant I4 before any client data lands). A fork therefore
// pays O(pages touched) instead of the cold boot's zero+prefault, which is
// what puts a fork's time-to-first-compute far below a cold boot's.
//
// Invariant I9 guards the scheme: every template frame's refcount equals the
// template's own baseline reference plus its live sharers, no shared frame is
// writable anywhere, and every mapping of a shared frame sits in a sharer's
// address space.

// TemplateID names a snapshot template in the monitor's registry.
type TemplateID int

// commonAttach records one common-region attachment captured at snapshot
// time, replayed for every fork.
type commonAttach struct {
	name     string
	base     paging.Addr
	writable bool
}

// sbTemplate is one frozen sandbox image.
type sbTemplate struct {
	id          TemplateID
	name        string
	owner       mem.Owner
	budgetPages uint64
	usedPages   uint64
	// confined/leaf are the source sandbox's declared layout; leaf holds the
	// original (writable) PTE templates so a CoW break can restore the exact
	// permissions the page was declared with.
	confined map[paging.Addr]mem.Frame
	leaf     map[paging.Addr]paging.PTE
	// frames lists the template's frames in declare order — every per-frame
	// sweep (fork refcounting, release) iterates this slice, never a map, so
	// frame-pool order stays deterministic.
	frames  []mem.Frame
	commons []commonAttach
	// regs is the source sandbox's register image at freeze time.
	regs cpu.Regs
	// forks counts live sandboxes forked from this template.
	forks int
}

// TemplateInfo is the read-only registry view for the harness.
type TemplateInfo struct {
	ID    TemplateID
	Name  string
	Pages uint64
	Forks int
}

// TemplateInfo returns a snapshot of a template's state.
func (mon *Monitor) TemplateInfo(id TemplateID) (TemplateInfo, bool) {
	t, ok := mon.templates[id]
	if !ok {
		return TemplateInfo{}, false
	}
	return TemplateInfo{ID: t.id, Name: t.name, Pages: uint64(len(t.frames)), Forks: t.forks}, true
}

// EMCSnapshotSandbox freezes sandbox id into an immutable fork template and
// retires the source sandbox. The sandbox must be booted but still empty:
// client data never enters a template (C6 — a template is shared across
// tenants), so snapshot is refused after data install, while input is queued
// or while a secure channel is live. The source's confined frames move into
// the template registry (still pinned, refcount 1 held by the template), its
// mappings are unmapped and flushed everywhere, and the sandbox identity is
// destroyed — the caller tears down the hosting task and address space.
func (mon *Monitor) EMCSnapshotSandbox(c *cpu.Core, id SandboxID, name string) (TemplateID, error) {
	var tid TemplateID
	err := mon.gate(c, "sandbox", func() error {
		sb, ok := mon.sandboxes[id]
		if !ok || sb.destroyed {
			return denied("snapshot-sandbox", "no live sandbox %d", id)
		}
		if sb.dataInstalled {
			return denied("snapshot-sandbox", "sandbox %d holds client data; templates must be pre-install", id)
		}
		if len(sb.pendingInput) > 0 {
			return denied("snapshot-sandbox", "sandbox %d has %d queued input message(s)", id, len(sb.pendingInput))
		}
		if sb.conn != nil {
			return denied("snapshot-sandbox", "sandbox %d has a live secure channel", id)
		}
		if sb.template != 0 {
			return denied("snapshot-sandbox", "sandbox %d is itself a fork of template %d", id, sb.template)
		}
		mon.nextTemplateID++
		tid = mon.nextTemplateID
		tmpl := &sbTemplate{
			id: tid, name: name, owner: sb.owner,
			budgetPages: sb.budgetPages, usedPages: sb.usedPages,
			confined: make(map[paging.Addr]mem.Frame, len(sb.confined)),
			leaf:     make(map[paging.Addr]paging.PTE, len(sb.confinedLeaf)),
			frames:   append([]mem.Frame(nil), sb.confinedFrames...),
			regs:     sb.savedRegs,
		}
		for va, f := range sb.confined {
			tmpl.confined[va] = f
			tmpl.leaf[va] = sb.confinedLeaf[va]
		}
		// Capture the attachment set in a fixed order (sb.commons is a map).
		names := make([]string, 0, len(sb.commons))
		for n := range sb.commons {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			cr := mon.commons[n]
			for _, at := range cr.attached {
				if at.sb == id {
					tmpl.commons = append(tmpl.commons, commonAttach{name: n, base: at.base, writable: at.writable})
				}
			}
		}
		// Ownership handover: the frames leave the single-mapping index (they
		// will be multi-mapped read-only) and enter the template index. The
		// template itself holds their refcount baseline of 1.
		as := mon.addrSpaces[sb.asid]
		for _, f := range tmpl.frames {
			delete(mon.confinedOwner, f)
			mon.templateFrames[f] = tid
		}
		for va := range sb.confined {
			if as == nil {
				break
			}
			if _, mapped := as.userFrames[va]; !mapped {
				continue
			}
			_ = as.tables.Unmap(va)
			delete(as.userFrames, va)
			mon.pteWrite()
		}
		// No core may keep translating into frames that are about to be
		// shared read-only across tenants.
		if as != nil {
			mon.M.ShootdownRoot(c, as.tables.Root)
		}
		// Retire the source identity without a scrub: the frames now belong
		// to the template, and they hold no client data by precondition.
		sb.confinedFrames = nil
		sb.destroyed = true
		sb.killReason = fmt.Sprintf("snapshotted into template %d", tid)
		mon.templates[tid] = tmpl
		mon.Stats.SandboxSnapshots++
		mon.Met.Inc(metrics.FamilySnapshots)
		mon.Rec.Emit(trace.KindSandboxSnapshot, trace.SandboxTrack(int(id)),
			fmt.Sprintf("snapshot %d->template %d", id, tid))
		mon.M.Clock.Charge(costs.EreborSnapshotBody + uint64(len(tmpl.frames))*costs.EreborSnapshotPage)
		// Phase boundary: the frames just became multi-mappable; I4 must no
		// longer claim them and I9 must hold from the very first instant.
		mon.wdPhaseSweep(TriggerSnapshot)
		return nil
	})
	return tid, err
}

// EMCForkSandbox instantiates a new sandbox from a template into an empty
// address space. Every template page is adopted copy-on-write: the shared
// frame's refcount is raised and a read-only CoW leaf is recorded for the
// lazy fault path — no PTE is installed and no byte is copied here, so the
// gate cost is O(pages) bookkeeping only. The new sandbox gets a fresh
// identity and its own attachment of every common region the template held.
func (mon *Monitor) EMCForkSandbox(c *cpu.Core, asid ASID, tid TemplateID) (SandboxID, error) {
	var id SandboxID
	err := mon.gate(c, "sandbox", func() error {
		as, ok := mon.addrSpaces[asid]
		if !ok {
			return denied("fork-sandbox", "unknown address space %d", asid)
		}
		if sb := mon.sandboxByAS(asid); sb != nil {
			return denied("fork-sandbox", "address space %d already hosts sandbox %d", asid, sb.id)
		}
		tmpl, ok := mon.templates[tid]
		if !ok {
			return denied("fork-sandbox", "unknown template %d", tid)
		}
		mon.nextSBID++
		id = mon.nextSBID
		ns := &sbState{
			id: id, asid: asid, owner: as.owner,
			budgetPages: tmpl.budgetPages, usedPages: tmpl.usedPages,
			confined:     make(map[paging.Addr]mem.Frame, len(tmpl.confined)),
			confinedLeaf: make(map[paging.Addr]paging.PTE, len(tmpl.confined)),
			commons:      make(map[string]bool),
			template:     tid,
			cowPages:     make(map[paging.Addr]bool, len(tmpl.confined)),
			savedRegs:    tmpl.regs,
		}
		for va, f := range tmpl.confined {
			ns.confined[va] = f
			// Shared pages map read-only with the CoW software bit; the
			// original writable leaf is restored by cowBreakLocked on first
			// write.
			ns.confinedLeaf[va] = (tmpl.leaf[va] &^ paging.Writable) | paging.CoW
			ns.cowPages[va] = true
		}
		for _, f := range tmpl.frames {
			if err := mon.M.Phys.IncRef(f); err != nil {
				return err
			}
		}
		for _, ca := range tmpl.commons {
			cr, ok := mon.commons[ca.name]
			if !ok {
				continue
			}
			ns.commons[ca.name] = true
			cr.attached = append(cr.attached, attachment{
				sb: id, asid: asid, base: ca.base,
				writable: ca.writable && !cr.sealed,
			})
		}
		tmpl.forks++
		mon.sandboxes[id] = ns
		mon.Stats.SandboxForks++
		mon.Met.Inc(metrics.FamilyForks, metrics.KV("template", fmt.Sprint(int(tid))))
		mon.Rec.Emit(trace.KindSandboxFork, trace.SandboxTrack(int(id)),
			fmt.Sprintf("fork template %d->%d", tid, id))
		mon.M.Clock.Charge(costs.EreborForkBody + uint64(len(tmpl.frames))*costs.EreborForkPage)
		// Phase boundary: a new identity just gained shared mappings-to-be;
		// the refcount ledger must already balance.
		mon.wdPhaseSweep(TriggerFork)
		return nil
	})
	return id, err
}

// EMCDestroyTemplate releases a template with no live forks: its frames are
// zeroed, unpinned and freed (in declare order — frame-pool determinism), and
// the registry entry is dropped. Refused while forks still share the frames.
func (mon *Monitor) EMCDestroyTemplate(c *cpu.Core, tid TemplateID) error {
	return mon.gate(c, "sandbox", func() error {
		tmpl, ok := mon.templates[tid]
		if !ok {
			return denied("destroy-template", "unknown template %d", tid)
		}
		if tmpl.forks > 0 {
			return denied("destroy-template", "template %d has %d live fork(s)", tid, tmpl.forks)
		}
		for _, f := range tmpl.frames {
			delete(mon.templateFrames, f)
			if err := mon.M.Phys.Zero(f); err == nil {
				mon.M.Clock.Charge(costs.PageZero)
			}
			_ = mon.M.Phys.SetPinned(f, false)
			if _, err := mon.M.Phys.DecRef(f); err != nil {
				mon.recordViolation("destroy-template %d: releasing frame %d: %v", tid, f, err)
			}
		}
		delete(mon.templates, tid)
		return nil
	})
}

// cowBreakLocked resolves a first write to a CoW-shared page: copy the
// template frame into a fresh exclusive CMA frame owned by the writing
// sandbox, restore the original writable leaf, drop the template reference
// and — if the read-only mapping was already installed — replace it and
// shoot the downgraded translation down everywhere. After this returns the
// page is ordinary confined memory: pinned, single-mapped, owned (I4).
func (mon *Monitor) cowBreakLocked(sb *sbState, va paging.Addr) error {
	if !sb.cowPages[va] {
		return denied("cow-break", "va %#x of sandbox %d is not CoW-shared", va, sb.id)
	}
	mon.M.PushFrame("monitor/cow/break")
	defer mon.M.PopFrame()
	old := sb.confined[va]
	nf, err := mon.M.Phys.AllocRegion(RegionCMA, sb.owner)
	if err != nil {
		return err
	}
	if err := mon.M.Phys.CopyFrame(nf, old); err != nil {
		_ = mon.M.Phys.Free(nf)
		return err
	}
	_ = mon.M.Phys.SetPinned(nf, true)
	mon.confinedOwner[nf] = sb.id
	newLeaf := ((sb.confinedLeaf[va] &^ paging.CoW) | paging.Writable).WithFrame(nf)
	sb.confined[va] = nf
	sb.confinedLeaf[va] = newLeaf
	sb.confinedFrames = append(sb.confinedFrames, nf)
	delete(sb.cowPages, va)
	if _, err := mon.M.Phys.DecRef(old); err != nil {
		return err
	}
	if as := mon.addrSpaces[sb.asid]; as != nil {
		if _, mapped := as.userFrames[va]; mapped {
			if err := as.tables.Map(va, newLeaf); err != nil {
				return err
			}
			as.userFrames[va] = nf
			mon.pteWrite()
			// Any core may still cache the read-only translation into the
			// template frame; it must die before the write retires.
			mon.M.Shootdown(mon.shootdownInitiator(), as.tables.Root, va)
		}
	}
	mon.Stats.CowBreaks++
	mon.Met.Inc(metrics.FamilyCowBreaks, metrics.KV("template", fmt.Sprint(int(sb.template))))
	if mon.Rec.Enabled() {
		mon.Rec.Emit(trace.KindCowBreak, trace.SandboxTrack(int(sb.id)),
			fmt.Sprintf("cow-break va=%#x", uint64(va)))
	}
	mon.M.Clock.Charge(costs.CoWBreakBody + costs.PageCopy)
	return nil
}

// releaseCowLocked drops a dying forked sandbox's remaining template
// references: unmap any still-installed shared leaves, decrement each shared
// frame's refcount (the template's own baseline keeps them alive) and release
// the fork's claim on the template. Idempotent across the kill/end paths.
func (mon *Monitor) releaseCowLocked(sb *sbState) {
	if sb.template == 0 || sb.cowReleased {
		return
	}
	sb.cowReleased = true
	as := mon.addrSpaces[sb.asid]
	// Release in VA order, not cowPages map order: the shootdown list and
	// any violation records must be deterministic.
	vas := make([]paging.Addr, 0, len(sb.cowPages))
	for va := range sb.cowPages {
		vas = append(vas, va)
	}
	sort.Slice(vas, func(i, j int) bool { return vas[i] < vas[j] })
	var stale []paging.Addr
	for _, va := range vas {
		if as != nil {
			if _, mapped := as.userFrames[va]; mapped {
				_ = as.tables.Unmap(va)
				delete(as.userFrames, va)
				mon.pteWrite()
				stale = append(stale, va)
			}
		}
		if _, err := mon.M.Phys.DecRef(sb.confined[va]); err != nil {
			mon.recordViolation("release-cow sandbox %d: frame %d: %v", sb.id, sb.confined[va], err)
		}
	}
	if as != nil && len(stale) > 0 {
		mon.M.Shootdown(mon.shootdownInitiator(), as.tables.Root, stale...)
	}
	sb.cowPages = nil
	if tmpl := mon.templates[sb.template]; tmpl != nil {
		tmpl.forks--
	}
}
