package kernel

import (
	"github.com/asterisc-release/erebor-go/internal/cpu"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/monitor"
	"github.com/asterisc-release/erebor-go/internal/paging"
)

// Memory-pressure reclaim. The paper pins confined pages (secrets must not
// hit disk) but leaves common pages unpinned — "common pages are large and
// do not contain secrets, thus they are not pinned" (§6.1). On a loaded
// host, the kernel's reclaimer therefore keeps evicting clean common (and
// natively: file-backed page-cache) pages, which is the sustained
// page-fault traffic Table 6 reports for the long-running workloads.

// reclaimRegion is one registered evictable range.
type reclaimRegion struct {
	p      *Proc
	start  paging.Addr
	end    paging.Addr
	cursor paging.Addr
}

// RegisterReclaimable marks [start, end) of a process as evictable under
// memory pressure. For a sandboxed process the range must be an attached
// common region (the monitor refuses to reclaim confined/pinned pages).
func (k *Kernel) RegisterReclaimable(p *Proc, start, end paging.Addr) {
	k.reclaimRegions = append(k.reclaimRegions, &reclaimRegion{p: p, start: start, end: end, cursor: start})
}

// reclaimTick evicts up to ReclaimPerTick pages round-robin across the
// registered regions (invoked from the timer interrupt handler).
func (k *Kernel) reclaimTick(c *cpu.Core) {
	if len(k.reclaimRegions) == 0 {
		return
	}
	evicted := 0
	attempts := 0
	maxAttempts := k.ReclaimPerTick * 64
	for evicted < k.ReclaimPerTick && attempts < maxAttempts {
		attempts++
		r := k.reclaimRegions[k.reclaimNext%len(k.reclaimRegions)]
		k.reclaimNext++
		if r.p.threads == 0 { // all threads gone
			continue
		}
		// Scan forward from the cursor for a mapped page.
		for scanned := paging.Addr(0); scanned < r.end-r.start; scanned += mem.PageSize {
			va := r.cursor
			r.cursor += mem.PageSize
			if r.cursor >= r.end {
				r.cursor = r.start
			}
			f, ok := r.p.AS.Translate(va)
			if !ok {
				continue
			}
			if k.evictPage(c, r.p, va, f) {
				evicted++
			}
			break
		}
	}
}

// evictPage drops the mapping of one evictable page at va, backed by f. A
// sandbox's page goes through a reclaim, which the monitor permits only
// for unpinned common pages; its frame stays allocated (the monitor keeps
// the data, only the mapping goes away, exactly like the shm backend). Any
// other page is unmapped and f freed.
func (k *Kernel) evictPage(c *cpu.Core, p *Proc, va paging.Addr, f mem.Frame) bool {
	op := monitor.OpUnmap
	if p.Sandbox != 0 {
		op = monitor.OpReclaim
	}
	k.reqs = append(k.reqs[:0], monitor.RingReq{Op: op, VA: va})
	if _, err := k.priv.Submit(c, p.AS, k.reqs); err != nil {
		return false
	}
	if op == monitor.OpUnmap {
		_ = k.M.Phys.Free(f)
	}
	return true
}
