// Package paging simulates x86-64 4-level page tables with 4 KiB pages.
// Page-table pages (PTPs) live in simulated physical frames and entries are
// stored as 8-byte little-endian words, so Erebor's PTP write-protection
// (assigning a PKS key to PTP frames in the direct map) is enforced on the
// same bytes an attacker would have to modify.
//
// The package provides the mechanics only — walking, mapping, encoding and
// the architectural permission check. Policy (who may write PTEs) lives in
// internal/monitor; the access path lives in internal/cpu.
package paging

import (
	"encoding/binary"
	"fmt"

	"github.com/asterisc-release/erebor-go/internal/mem"
)

// PTE is an x86-style page-table entry.
type PTE uint64

// Architectural PTE bits (subset used by the simulation).
const (
	Present  PTE = 1 << 0
	Writable PTE = 1 << 1
	User     PTE = 1 << 2 // U/S: 1 = user page
	Accessed PTE = 1 << 5
	Dirty    PTE = 1 << 6
	Global   PTE = 1 << 8
	// CoW marks a copy-on-write leaf in one of the software-available bits
	// (9-11): the frame is shared with a snapshot template, mapped
	// read-only, and the first write must copy + re-key before the mapping
	// becomes writable. Hardware ignores the bit; only the monitor's fault
	// path interprets it.
	CoW PTE = 1 << 9
	NX  PTE = 1 << 63

	frameMask PTE = 0x000F_FFFF_FFFF_F000
	keyShift      = 59
	keyMask   PTE = 0xF << keyShift
)

// NumKeys is the number of protection keys (PKS and PKU both define 16).
const NumKeys = 16

// Frame returns the physical frame a present entry points at.
func (e PTE) Frame() mem.Frame { return mem.Frame((e & frameMask) >> mem.PageShift) }

// WithFrame returns e pointing at frame f.
func (e PTE) WithFrame(f mem.Frame) PTE {
	return (e &^ frameMask) | (PTE(f) << mem.PageShift & frameMask)
}

// Key returns the protection key in bits 62:59.
func (e PTE) Key() uint8 { return uint8((e & keyMask) >> keyShift) }

// WithKey returns e tagged with protection key k.
func (e PTE) WithKey(k uint8) PTE {
	return (e &^ keyMask) | (PTE(k&0xF) << keyShift)
}

// Is reports whether all bits in mask are set.
func (e PTE) Is(mask PTE) bool { return e&mask == mask }

// UserLeaf encodes a present user leaf for frame f: writable if w, and
// executable if x (NX otherwise).
func UserLeaf(f mem.Frame, w, x bool) PTE {
	leaf := (Present | User).WithFrame(f)
	if w {
		leaf |= Writable
	}
	if !x {
		leaf |= NX
	}
	return leaf
}

// Virtual-address geometry: 4 levels x 9 bits + 12-bit offset = 48 bits.
const (
	Levels       = 4
	EntriesPerPT = 512
	VAddrBits    = 48
)

// Addr is a virtual address.
type Addr uint64

// Split returns the four table indices and page offset of a virtual address.
func Split(v Addr) (idx [Levels]int, off uint64) {
	off = uint64(v) & (mem.PageSize - 1)
	for l := 0; l < Levels; l++ {
		shift := uint(12 + 9*(Levels-1-l))
		idx[l] = int(uint64(v) >> shift & 0x1FF)
	}
	return idx, off
}

// PageBase returns the page-aligned base of v.
func PageBase(v Addr) Addr { return v &^ (mem.PageSize - 1) }

// FaultReason classifies why an access was refused.
type FaultReason int

const (
	FaultNone FaultReason = iota
	FaultNotPresent
	FaultWrite        // write to non-writable page
	FaultUser         // user access to supervisor page
	FaultNXViolation  // execute of NX page
	FaultSMEP         // supervisor execute of user page
	FaultSMAP         // supervisor data access to user page
	FaultPKeyAccess   // PKS access-disable
	FaultPKeyWrite    // PKS write-disable
	FaultNonCanonical // address outside the 48-bit space
	// FaultTableCorrupt is a walk that could not READ a table entry: the
	// table pointer left physical memory. Unlike FaultNotPresent this is
	// never a benign soft fault — re-mapping cannot fix it — so handlers
	// must surface it instead of faulting in a fresh page.
	FaultTableCorrupt
)

func (r FaultReason) String() string {
	switch r {
	case FaultNone:
		return "none"
	case FaultNotPresent:
		return "not-present"
	case FaultWrite:
		return "write-protect"
	case FaultUser:
		return "user-access"
	case FaultNXViolation:
		return "nx"
	case FaultSMEP:
		return "smep"
	case FaultSMAP:
		return "smap"
	case FaultPKeyAccess:
		return "pkey-access"
	case FaultPKeyWrite:
		return "pkey-write"
	case FaultNonCanonical:
		return "non-canonical"
	case FaultTableCorrupt:
		return "table-corrupt"
	}
	return "unknown"
}

// Fault describes a refused access.
type Fault struct {
	Reason FaultReason
	Addr   Addr
	Kind   AccessKind
}

func (f *Fault) Error() string {
	return fmt.Sprintf("paging: %s fault (%s) at %#x", f.Kind, f.Reason, f.Addr)
}

// AccessKind is the type of memory access being checked.
type AccessKind int

const (
	Read AccessKind = iota
	Write
	Execute
)

func (k AccessKind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	case Execute:
		return "execute"
	}
	return "access"
}

// Context carries the CPU state the architectural permission check depends
// on. internal/cpu fills it from live register state.
type Context struct {
	Supervisor bool // executing in ring 0
	SMEP       bool // CR4.SMEP
	SMAP       bool // CR4.SMAP
	ACFlag     bool // EFLAGS.AC (set by stac): suspends SMAP
	WP         bool // CR0.WP: write-protect applies in ring 0
	PKSEnabled bool // CR4.PKS
	PKRS       uint32
}

// PKRS permission bits per key: bit 2k = access-disable, 2k+1 = write-disable.
func pkrsAD(pkrs uint32, key uint8) bool { return pkrs>>(2*key)&1 == 1 }
func pkrsWD(pkrs uint32, key uint8) bool { return pkrs>>(2*key+1)&1 == 1 }

// PKRSDisableAll is a PKRS value denying access to every key.
const PKRSDisableAll uint32 = 0x5555_5555

// PKRSAllowAll grants every key full access.
const PKRSAllowAll uint32 = 0

// PKRSSet returns pkrs with the given key's access/write disable bits set as
// requested.
func PKRSSet(pkrs uint32, key uint8, accessDisable, writeDisable bool) uint32 {
	pkrs &^= 3 << (2 * key)
	if accessDisable {
		pkrs |= 1 << (2 * key)
	}
	if writeDisable {
		pkrs |= 1 << (2*key + 1)
	}
	return pkrs
}

// Check applies the architectural permission rules to a leaf PTE. It
// returns nil when the access is allowed.
func Check(v Addr, e PTE, kind AccessKind, ctx Context) *Fault {
	if !e.Is(Present) {
		return &Fault{FaultNotPresent, v, kind}
	}
	userPage := e.Is(User)
	if !ctx.Supervisor {
		if !userPage {
			return &Fault{FaultUser, v, kind}
		}
		if kind == Write && !e.Is(Writable) {
			return &Fault{FaultWrite, v, kind}
		}
		if kind == Execute && e.Is(NX) {
			return &Fault{FaultNXViolation, v, kind}
		}
		return nil
	}
	// Supervisor access.
	switch kind {
	case Execute:
		if e.Is(NX) {
			return &Fault{FaultNXViolation, v, kind}
		}
		if userPage && ctx.SMEP {
			return &Fault{FaultSMEP, v, kind}
		}
	case Read, Write:
		if userPage && ctx.SMAP && !ctx.ACFlag {
			return &Fault{FaultSMAP, v, kind}
		}
		if kind == Write && !e.Is(Writable) && ctx.WP {
			return &Fault{FaultWrite, v, kind}
		}
		// PKS applies to supervisor pages only.
		if !userPage && ctx.PKSEnabled {
			key := e.Key()
			if pkrsAD(ctx.PKRS, key) {
				return &Fault{FaultPKeyAccess, v, kind}
			}
			if kind == Write && pkrsWD(ctx.PKRS, key) && ctx.WP {
				return &Fault{FaultPKeyWrite, v, kind}
			}
		}
	}
	return nil
}

// ReadPTE loads the 8-byte entry at physical address a.
func ReadPTE(p *mem.Physical, a mem.Addr) (PTE, error) {
	w, err := p.ReadWord(a)
	return PTE(w), err
}

// WritePTE stores the 8-byte entry at physical address a. This is the raw
// store used by privileged software; deprivileged software must go through
// the CPU store path (where PKS protects PTP frames) or an EMC.
func WritePTE(p *mem.Physical, a mem.Addr, e PTE) error {
	return p.WriteWord(a, uint64(e))
}

// Tables is one address space: a root PTP plus the physical memory the
// tables live in.
type Tables struct {
	Phys *mem.Physical
	Root mem.Frame

	// AllocPTP allocates a frame for a new page-table page. It lets the
	// owner (kernel natively, monitor under Erebor) control placement and
	// apply protections to new PTPs.
	AllocPTP func() (mem.Frame, error)
	// OnPTPAlloc, if set, is invoked after a new PTP frame is allocated and
	// zeroed (the monitor uses it to write-protect the PTP in the direct
	// map and register it).
	OnPTPAlloc func(f mem.Frame)
	// OnPTEWrite, if set, observes every leaf PTE write (cycle accounting).
	OnPTEWrite func(a mem.Addr, e PTE)
}

// New creates an address space with a fresh, zeroed root PTP.
func New(p *mem.Physical, alloc func() (mem.Frame, error)) (*Tables, error) {
	t := &Tables{Phys: p, AllocPTP: alloc}
	root, err := t.newPTP()
	if err != nil {
		return nil, err
	}
	t.Root = root
	return t, nil
}

func (t *Tables) newPTP() (mem.Frame, error) {
	f, err := t.AllocPTP()
	if err != nil {
		return 0, err
	}
	if err := t.Phys.Zero(f); err != nil {
		return 0, err
	}
	if t.OnPTPAlloc != nil {
		t.OnPTPAlloc(f)
	}
	return f, nil
}

func entryAddr(table mem.Frame, idx int) mem.Addr {
	return table.Base() + mem.Addr(idx*8)
}

// Lookup descends the tables for v and returns the leaf PTE, its physical
// address and why the walk stopped: FaultNone at a present leaf. A missing
// intermediate entry yields FaultNotPresent with no leaf; a missing leaf
// yields FaultNotPresent with the leaf's entry and address; a table pointer
// outside physical memory yields FaultTableCorrupt (distinct, so the fault
// path surfaces corruption instead of re-mapping over it). Lookup
// allocates nothing, so a caller that only tests for a miss uses it.
func (t *Tables) Lookup(v Addr) (PTE, mem.Addr, FaultReason) {
	idx, _ := Split(v)
	table := t.Root
	for l := 0; l < Levels-1; l++ {
		a := entryAddr(table, idx[l])
		e, err := ReadPTE(t.Phys, a)
		if err != nil {
			return 0, 0, FaultTableCorrupt
		}
		if !e.Is(Present) {
			return 0, 0, FaultNotPresent
		}
		table = e.Frame()
	}
	a := entryAddr(table, idx[Levels-1])
	e, err := ReadPTE(t.Phys, a)
	if err != nil {
		return 0, 0, FaultTableCorrupt
	}
	if !e.Is(Present) {
		return e, a, FaultNotPresent
	}
	return e, a, FaultNone
}

// Walk is Lookup reporting the stop as a read Fault at v, nil at a present
// leaf, for callers that pass the fault on.
func (t *Tables) Walk(v Addr) (PTE, mem.Addr, *Fault) {
	e, a, r := t.Lookup(v)
	if r != FaultNone {
		return e, a, &Fault{r, v, Read}
	}
	return e, a, nil
}

// Map installs a leaf mapping v -> pte (which must carry the target frame
// and flags), creating intermediate PTPs as needed. Intermediate entries
// are created Present|Writable and inherit User from the leaf so user pages
// are reachable.
func (t *Tables) Map(v Addr, leaf PTE) error { return t.MapRange(v, leaf, 1) }

// MapRange maps the n pages from v to the n frames from leaf's frame, each
// with leaf's flags. It does exactly what n Map calls in page order do —
// the same PTPs allocated in the same order, the same table bytes, hook
// calls and errors — with one descent per last-level table and one pass
// over that table's entries. The path above a last-level table is read
// once per table, so that table must not alias its own path and the hooks
// must not rewrite the path.
func (t *Tables) MapRange(v Addr, leaf PTE, n uint64) error {
	for n > 0 {
		table, first, err := t.leafTable(v, leaf.Is(User))
		if err != nil {
			return err
		}
		run := min(n, uint64(EntriesPerPT-first))
		b, err := t.Phys.Bytes(table)
		if err != nil {
			// The table lies outside memory: fail the first store the
			// way Map's would.
			return WritePTE(t.Phys, entryAddr(table, first), leaf)
		}
		for i := first; i < first+int(run); i++ {
			binary.LittleEndian.PutUint64(b[i*8:], uint64(leaf))
			if t.OnPTEWrite != nil {
				t.OnPTEWrite(entryAddr(table, i), leaf)
			}
			leaf = leaf.WithFrame(leaf.Frame() + 1)
		}
		v += Addr(run) << mem.PageShift
		n -= run
	}
	return nil
}

// leafTable returns the last-level table that maps v and v's entry in it,
// creating missing PTPs and, for a user leaf, setting User along the path.
func (t *Tables) leafTable(v Addr, userPath bool) (mem.Frame, int, error) {
	idx, _ := Split(v)
	table := t.Root
	for l := 0; l < Levels-1; l++ {
		a := entryAddr(table, idx[l])
		e, err := ReadPTE(t.Phys, a)
		if err != nil {
			return 0, 0, err
		}
		if !e.Is(Present) {
			ptp, err := t.newPTP()
			if err != nil {
				return 0, 0, err
			}
			e = (Present | Writable).WithFrame(ptp)
			if userPath {
				e |= User
			}
			if err := WritePTE(t.Phys, a, e); err != nil {
				return 0, 0, err
			}
		} else if userPath && !e.Is(User) {
			// Upgrade the path so user leaves under it are reachable.
			if err := WritePTE(t.Phys, a, e|User); err != nil {
				return 0, 0, err
			}
		}
		table = e.Frame()
	}
	return table, idx[Levels-1], nil
}

// Unmap clears the leaf mapping for v. Unmapping a non-present page is a
// no-op. Intermediate PTPs are not reclaimed (matching common kernels).
func (t *Tables) Unmap(v Addr) error {
	_, a, r := t.Lookup(v)
	if r != FaultNone {
		if r == FaultTableCorrupt {
			return &Fault{r, v, Read}
		}
		return nil
	}
	if err := WritePTE(t.Phys, a, 0); err != nil {
		return err
	}
	if t.OnPTEWrite != nil {
		t.OnPTEWrite(a, 0)
	}
	return nil
}

// Prune walks the table path of v top-down as far as it is present, then
// releases empty table pages bottom-up: for each fully-zero table page
// (never the root), free is consulted; if it accepts the frame, the parent
// entry is cleared and the walk continues one level up. Rollback paths use
// it to return page-table pages created by a partially committed batch —
// free can refuse frames that predate the batch, which also stops the
// upward walk (an ancestor of a kept page is never empty anyway).
func (t *Tables) Prune(v Addr, free func(mem.Frame) bool) error {
	idx, _ := Split(v)
	path := []mem.Frame{t.Root}
	for l := 0; l < Levels-1; l++ {
		e, err := ReadPTE(t.Phys, entryAddr(path[l], idx[l]))
		if err != nil {
			return err
		}
		if !e.Is(Present) {
			break
		}
		path = append(path, e.Frame())
	}
	for l := len(path) - 1; l >= 1; l-- {
		empty, err := t.tableEmpty(path[l])
		if err != nil {
			return err
		}
		if !empty || !free(path[l]) {
			return nil
		}
		a := entryAddr(path[l-1], idx[l-1])
		if err := WritePTE(t.Phys, a, 0); err != nil {
			return err
		}
		if t.OnPTEWrite != nil {
			t.OnPTEWrite(a, 0)
		}
	}
	return nil
}

// Release hands every table page of the address space to free, each after
// the tables it points to and the root last. Only root entries [0, slots)
// are followed: under the monitor the rest alias the kernel half that every
// address space shares. The tables must not be used afterwards.
func (t *Tables) Release(slots int, free func(mem.Frame)) error {
	var release func(table mem.Frame, level, n int) error
	release = func(table mem.Frame, level, n int) error {
		if level < Levels-1 {
			for i := 0; i < n; i++ {
				e, err := ReadPTE(t.Phys, entryAddr(table, i))
				if err != nil {
					return err
				}
				if e.Is(Present) {
					if err := release(e.Frame(), level+1, EntriesPerPT); err != nil {
						return err
					}
				}
			}
		}
		free(table)
		return nil
	}
	return release(t.Root, 0, slots)
}

// tableEmpty reports whether every entry of a table page is zero.
func (t *Tables) tableEmpty(f mem.Frame) (bool, error) {
	for i := 0; i < EntriesPerPT; i++ {
		e, err := ReadPTE(t.Phys, entryAddr(f, i))
		if err != nil {
			return false, err
		}
		if e != 0 {
			return false, nil
		}
	}
	return true, nil
}

// Update rewrites the leaf PTE for v via fn. It fails if v is unmapped.
func (t *Tables) Update(v Addr, fn func(PTE) PTE) error {
	e, a, f := t.Walk(v)
	if f != nil {
		return f
	}
	ne := fn(e)
	if err := WritePTE(t.Phys, a, ne); err != nil {
		return err
	}
	if t.OnPTEWrite != nil {
		t.OnPTEWrite(a, ne)
	}
	return nil
}

// Translate resolves v to a physical address without permission checks.
func (t *Tables) Translate(v Addr) (mem.Addr, *Fault) {
	e, _, f := t.Walk(v)
	if f != nil {
		return 0, f
	}
	if !e.Is(Present) {
		return 0, &Fault{FaultNotPresent, v, Read}
	}
	_, off := Split(v)
	return e.Frame().Base() + mem.Addr(off), nil
}
