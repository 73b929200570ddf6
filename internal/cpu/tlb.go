// Per-core TLB model. Each core caches successful leaf translations keyed
// by (root PTP frame, page base) — a PCID-style tagged TLB, so reloading
// CR3 does not flush entries and stale translations survive address-space
// switches exactly as they do on hardware with PCIDs enabled. That makes
// the coherence obligation real: software that unmaps, reclaims, or
// retypes a page must invalidate every core's TLB (an IPI shootdown)
// before the frame may be reused, or a core can keep dereferencing the
// old translation.
//
// Only the translation (the leaf PTE) is cached. Permission checks run on
// every access against the *current* register state (PKRS, ring, SMAP/AC,
// WP), matching hardware where PKRS is consulted at access time, not walk
// time — so an EMC gate flipping PKRS takes effect immediately even on
// TLB hits.
package cpu

import (
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/paging"
)

// DefaultTLBEntries is the per-core TLB capacity (entries).
const DefaultTLBEntries = 256

// TLBKey identifies one cached translation: the address space (by root
// PTP frame, the simulation's PCID) and the page base.
type TLBKey struct {
	Root mem.Frame
	VA   paging.Addr
}

// TLB is one core's translation cache. Eviction is FIFO over a slice of
// keys, so behaviour is deterministic (no map-iteration order anywhere).
type TLB struct {
	cap     int
	entries map[TLBKey]paging.PTE
	order   []TLBKey // insertion order, oldest first
}

func newTLB(capacity int) *TLB {
	if capacity <= 0 {
		capacity = DefaultTLBEntries
	}
	return &TLB{cap: capacity, entries: make(map[TLBKey]paging.PTE)}
}

// Lookup returns the cached leaf for (root, page base of va), if any.
func (t *TLB) Lookup(root mem.Frame, va paging.Addr) (paging.PTE, bool) {
	e, ok := t.entries[TLBKey{Root: root, VA: paging.PageBase(va)}]
	return e, ok
}

// Insert caches a leaf translation, evicting the oldest entry at capacity.
// Re-inserting an existing key updates it in place (no duplicate order
// slot, so the key keeps its original eviction age).
func (t *TLB) Insert(root mem.Frame, va paging.Addr, leaf paging.PTE) {
	k := TLBKey{Root: root, VA: paging.PageBase(va)}
	if _, ok := t.entries[k]; ok {
		t.entries[k] = leaf
		return
	}
	if len(t.order) >= t.cap {
		old := t.order[0]
		t.order = t.order[1:]
		delete(t.entries, old)
	}
	t.entries[k] = leaf
	t.order = append(t.order, k)
}

// dropKey removes one key from entries and the order slice.
func (t *TLB) dropKey(k TLBKey) bool {
	if _, ok := t.entries[k]; !ok {
		return false
	}
	delete(t.entries, k)
	for i, o := range t.order {
		if o == k {
			t.order = append(t.order[:i], t.order[i+1:]...)
			break
		}
	}
	return true
}

// InvalidatePage drops the translation for one page under one root
// (invlpg). Returns whether an entry was present.
func (t *TLB) InvalidatePage(root mem.Frame, va paging.Addr) bool {
	return t.dropKey(TLBKey{Root: root, VA: paging.PageBase(va)})
}

// InvalidateRoot drops every translation cached under one root (a
// PCID-targeted flush of one address space).
func (t *TLB) InvalidateRoot(root mem.Frame) int {
	n := 0
	kept := t.order[:0]
	for _, k := range t.order {
		if k.Root == root {
			delete(t.entries, k)
			n++
		} else {
			kept = append(kept, k)
		}
	}
	t.order = kept
	return n
}

// InvalidateVA drops the translation for one page under every root. Used
// when a shared kernel-half leaf (reachable from all address spaces, e.g.
// the direct map) changes.
func (t *TLB) InvalidateVA(va paging.Addr) int {
	base := paging.PageBase(va)
	n := 0
	kept := t.order[:0]
	for _, k := range t.order {
		if k.VA == base {
			delete(t.entries, k)
			n++
		} else {
			kept = append(kept, k)
		}
	}
	t.order = kept
	return n
}

// Len returns the number of cached translations.
func (t *TLB) Len() int { return len(t.entries) }
