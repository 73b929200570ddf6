package monitor

import (
	"fmt"
	"sort"

	"github.com/asterisc-release/erebor-go/internal/audit"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/paging"
)

// Audit verifies the monitor's global security invariants over the entire
// machine state and returns a typed audit.Violation for every break found.
// It is the executable form of the §8 claims: after any sequence of EMCs
// the invariants must hold. Tests drive random operation sequences against
// it, and the continuous watchdog (watchdog.go) sweeps it at virtual-clock
// cadence and at phase boundaries while serving.
//
// Invariants:
//
//	I1. Every page-table page is keyed KeyPTP in the direct map (kernel may
//	    read, never write).
//	I2. Every monitor frame is keyed KeyMonitor in the direct map (kernel
//	    may neither read nor write).
//	I3. W-xor-X: no kernel-half mapping is both writable and executable,
//	    and kernel-text frames are nowhere writable.
//	I4. Confined frames are pinned, CVM-private, and mapped in at most one
//	    address space — the one hosting their owning sandbox.
//	I5. Sealed common regions have no writable mapping anywhere.
//	I6. Only shared-io frames are CVM-shared.
//	I7. No monitor or PTP frame is mapped into any user address space.
//	I8. No frame crosses the proxy to a destination outside its tenant's
//	    compiled egress allowlist (swept when an egress ledger is wired).
//	I9. Copy-on-write refcount conservation: every template frame's
//	    refcount equals the template's baseline reference plus its live
//	    fork sharers, no shared frame has a writable mapping anywhere, and
//	    every mapping of a shared frame sits in a sharer's address space.
func (mon *Monitor) Audit() []audit.Violation {
	var v []audit.Violation
	report := func(code audit.Code, frame mem.Frame, format string, args ...any) {
		v = append(v, audit.Violation{
			Code:   code,
			Frame:  frame,
			Detail: fmt.Sprintf(format, args...),
		})
	}

	phys := mon.M.Phys

	// Per-frame mapping census across all registered address spaces.
	type mapping struct {
		asid ASID
		va   paging.Addr
		pte  paging.PTE
	}
	userMaps := make(map[mem.Frame][]mapping)
	for asid, as := range mon.addrSpaces {
		for va, f := range as.userFrames {
			e, _, reason := as.tables.Lookup(va)
			if reason != paging.FaultNone {
				continue
			}
			userMaps[f] = append(userMaps[f], mapping{asid, va, e})
		}
	}

	// I9's sharers: a live fork holds exactly one reference per page its
	// records still mark CoW; the template itself holds a baseline of 1 per
	// frame.
	sharers := make(map[mem.Frame]map[ASID]bool)
	for _, sb := range mon.sandboxes {
		if sb.destroyed || sb.template == 0 {
			continue
		}
		for _, p := range sb.pages {
			if !p.cow {
				continue
			}
			if sharers[p.frame] == nil {
				sharers[p.frame] = make(map[ASID]bool)
			}
			sharers[p.frame][sb.asid] = true
		}
	}

	// Every invariant but I6 and I8 is a rule for frames of one role, so
	// one pass over the frame index checks them.
	for f, r := range mon.roles {
		switch r.kind {
		case rolePTP: // I1: keyed KeyPTP in the direct map. I7: not user-mapped.
			e, _, reason := mon.kernelTables.Lookup(DirectMapAddr(f))
			if reason != paging.FaultNone {
				report(audit.PTPUnmapped, f, "unmapped in direct map")
			} else if e.Key() != KeyPTP {
				report(audit.PTPMiskeyed, f, "keyed %d, want %d", e.Key(), KeyPTP)
			}
			if len(userMaps[f]) > 0 {
				report(audit.PTPUserMapped, f, "mapped into user space")
			}

		case roleMonitor: // I2: keyed KeyMonitor in the direct map. I7: not user-mapped.
			e, _, reason := mon.kernelTables.Lookup(DirectMapAddr(f))
			if reason != paging.FaultNone {
				report(audit.MonitorFrameUnmapped, f, "unmapped in direct map")
			} else if e.Key() != KeyMonitor {
				report(audit.MonitorFrameMiskeyed, f, "keyed %d, want %d", e.Key(), KeyMonitor)
			}
			if len(userMaps[f]) > 0 {
				report(audit.MonitorFrameUserMapped, f, "mapped into user space")
			}

		case roleKernelText: // I3: never writable through the direct map.
			e, _, reason := mon.kernelTables.Lookup(DirectMapAddr(f))
			if reason == paging.FaultNone && e.Is(paging.Writable) {
				report(audit.KernelTextWritable, f, "writable via direct map")
			}

		case roleConfined: // I4: single-mapping, pinning, privacy.
			meta, err := phys.Meta(f)
			if err != nil {
				report(audit.ConfinedMetaMissing, f, "%v", err)
				continue
			}
			if !meta.Pinned {
				report(audit.ConfinedUnpinned, f, "not pinned")
			}
			if meta.Shared {
				report(audit.ConfinedShared, f, "is CVM-shared")
			}
			maps := userMaps[f]
			if len(maps) > 1 {
				report(audit.ConfinedMultiMapped, f, "mapped %d times", len(maps))
			}
			sb := mon.sandboxes[r.sb]
			for _, m := range maps {
				if sb == nil || m.asid != sb.asid {
					report(audit.ConfinedForeignMapping, f, "mapped outside sandbox %d's address space (AS %d)", r.sb, m.asid)
				}
			}

		case roleCommon: // I5: a sealed region is read-only everywhere.
			if !r.cr.sealed {
				continue
			}
			for _, m := range userMaps[f] {
				if m.pte.Is(paging.Writable) {
					report(audit.SealedWritable, f, "sealed region %q writable at %#x in AS %d", r.cr.name, m.va, m.asid)
				}
			}

		case roleTemplate: // I9: copy-on-write refcount conservation.
			// A ref nobody accounts for, a writable PTE on a shared frame or
			// a mapping in a non-sharer's address space breaks the fork
			// isolation argument.
			refs, err := phys.RefCount(f)
			if err != nil {
				report(audit.CowRefcountMismatch, f, "template %d frame meta missing: %v", r.tmpl, err)
				continue
			}
			want := uint32(1 + len(sharers[f]))
			if refs != want {
				report(audit.CowRefcountMismatch, f,
					"template %d: refcount %d, want %d (baseline + %d live sharer(s))",
					r.tmpl, refs, want, len(sharers[f]))
			}
			for _, m := range userMaps[f] {
				if m.pte.Is(paging.Writable) {
					report(audit.CowWritableShared, f,
						"template %d frame writable at %#x in AS %d", r.tmpl, m.va, m.asid)
				}
				if !sharers[f][m.asid] {
					report(audit.CowForeignMapping, f,
						"template %d frame mapped at %#x in AS %d, which holds no share", r.tmpl, m.va, m.asid)
				}
			}
		}
	}

	// I6: only shared-io frames may be CVM-shared. Physical indexes the
	// shared frames, so this visits them rather than all of memory.
	for _, f := range phys.SharedFrames() {
		meta, _ := phys.Meta(f)
		if meta.Region != RegionSharedIO {
			report(audit.SharedOutsideIO, f, "(%s, region %q) is CVM-shared", meta.Owner, meta.Region)
		}
	}

	// I8: every frame the egress ledger says crossed the proxy must be
	// inside its tenant's registered allowlist. The ledger re-evaluates its
	// allow records against the policies compiled at admission — not
	// whatever the untrusted proxy consulted — so forged allows are caught.
	if mon.Egress != nil {
		v = append(v, mon.Egress.AuditViolations()...)
	}

	// Several sweeps above walk Go maps, whose iteration order is random;
	// the watchdog's JSONL event log and metrics series must be
	// byte-identical across runs, so fix a total order here.
	sort.Slice(v, func(i, j int) bool {
		if v[i].Code != v[j].Code {
			return v[i].Code < v[j].Code
		}
		if v[i].Frame != v[j].Frame {
			return v[i].Frame < v[j].Frame
		}
		return v[i].Detail < v[j].Detail
	})
	return v
}
