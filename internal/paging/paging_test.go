package paging

import (
	"testing"
	"testing/quick"

	"github.com/asterisc-release/erebor-go/internal/mem"
)

func newTables(t *testing.T) (*Tables, *mem.Physical) {
	t.Helper()
	p := mem.NewPhysical(256 * mem.PageSize)
	tb, err := New(p, func() (mem.Frame, error) { return p.Alloc(mem.OwnerKernel) })
	if err != nil {
		t.Fatal(err)
	}
	return tb, p
}

func TestPTEFieldRoundTrip(t *testing.T) {
	f := func(frame uint32, key uint8) bool {
		fr := mem.Frame(frame)
		e := (Present | Writable).WithFrame(fr).WithKey(key)
		return e.Frame() == fr && e.Key() == key&0xF && e.Is(Present|Writable)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitGeometry(t *testing.T) {
	idx, off := Split(0)
	if idx != [Levels]int{0, 0, 0, 0} || off != 0 {
		t.Fatalf("Split(0) = %v, %d", idx, off)
	}
	// 0x8000_0000_0000 is PML4 slot 256.
	idx, _ = Split(0x8000_0000_0000)
	if idx[0] != 256 {
		t.Fatalf("slot = %d, want 256", idx[0])
	}
	idx, off = Split(0x1234_5678_9ABC)
	want := Addr(0)
	for l := 0; l < Levels; l++ {
		want |= Addr(idx[l]) << uint(12+9*(Levels-1-l))
	}
	want |= Addr(off)
	if want != 0x1234_5678_9ABC {
		t.Fatalf("Split not invertible: got %#x", want)
	}
}

func TestMapWalkUnmap(t *testing.T) {
	tb, p := newTables(t)
	frame, _ := p.Alloc(mem.OwnerKernel)
	va := Addr(0x40_0000)
	leaf := (Present | Writable | User).WithFrame(frame)
	if err := tb.Map(va, leaf); err != nil {
		t.Fatal(err)
	}
	got, _, fault := tb.Walk(va)
	if fault != nil || got.Frame() != frame {
		t.Fatalf("walk: %v %v", got, fault)
	}
	pa, fault := tb.Translate(va + 123)
	if fault != nil || pa != frame.Base()+123 {
		t.Fatalf("translate: %#x %v", pa, fault)
	}
	if err := tb.Unmap(va); err != nil {
		t.Fatal(err)
	}
	if _, _, fault := tb.Walk(va); fault == nil {
		t.Fatal("walk succeeded after unmap")
	}
	// The leaf table stays, so Lookup reports the empty leaf's slot, and a
	// miss costs no allocation.
	if _, a, r := tb.Lookup(va); r != FaultNotPresent || a == 0 {
		t.Fatalf("lookup after unmap: leaf %#x, reason %v", a, r)
	}
	if n := testing.AllocsPerRun(10, func() { tb.Lookup(va) }); n != 0 {
		t.Fatalf("a missed Lookup made %v allocations", n)
	}
	// Unmapping again is a no-op.
	if err := tb.Unmap(va); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateRewritesLeaf(t *testing.T) {
	tb, p := newTables(t)
	frame, _ := p.Alloc(mem.OwnerKernel)
	va := Addr(0x1000)
	if err := tb.Map(va, (Present | Writable).WithFrame(frame)); err != nil {
		t.Fatal(err)
	}
	if err := tb.Update(va, func(e PTE) PTE { return (e &^ Writable).WithKey(7) }); err != nil {
		t.Fatal(err)
	}
	e, _, _ := tb.Walk(va)
	if e.Is(Writable) || e.Key() != 7 {
		t.Fatalf("update lost: %v", e)
	}
	if err := tb.Update(0xDEAD000, func(e PTE) PTE { return e }); err == nil {
		t.Fatal("update of unmapped va succeeded")
	}
}

// TestReleaseFreesUserHalfOnly checks that Release visits every table page
// reachable below the first slots root entries exactly once, children
// before parents and the root last, and never follows an entry at or above
// slots.
func TestReleaseFreesUserHalfOnly(t *testing.T) {
	p := mem.NewPhysical(256 * mem.PageSize)
	var tables []mem.Frame
	tb, err := New(p, func() (mem.Frame, error) {
		f, err := p.Alloc(mem.OwnerKernel)
		tables = append(tables, f)
		return f, err
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two leaves sharing a PT, one in another PD, one in the kernel half.
	for _, va := range []Addr{0x40_0000, 0x40_1000, 0x4000_0000, 0x8000_0000_0000} {
		f, _ := p.Alloc(mem.OwnerKernel)
		if err := tb.Map(va, Present.WithFrame(f)); err != nil {
			t.Fatal(err)
		}
	}
	kernelPath := tables[len(tables)-3:] // the PDPT, PD and PT under slot 256
	userTables := tables[:len(tables)-3]
	freed := map[mem.Frame]int{}
	var order []mem.Frame
	if err := tb.Release(256, func(f mem.Frame) { freed[f]++; order = append(order, f) }); err != nil {
		t.Fatal(err)
	}
	if len(order) != len(userTables) {
		t.Fatalf("released %d table pages, want %d", len(order), len(userTables))
	}
	for _, f := range userTables {
		if freed[f] != 1 {
			t.Fatalf("user table %d released %d times, want 1", f, freed[f])
		}
	}
	for _, f := range kernelPath {
		if freed[f] != 0 {
			t.Fatalf("kernel-half table %d released", f)
		}
	}
	if order[len(order)-1] != tb.Root {
		t.Fatalf("root released at position %d, want last", len(order)-1)
	}
}

// checkCases exercises the architectural permission matrix.
func TestCheckPermissionMatrix(t *testing.T) {
	userRW := (Present | Writable | User | NX).WithFrame(1)
	userRX := (Present | User).WithFrame(1)
	kernRW := (Present | Writable | NX).WithFrame(1)
	kernRO := (Present | NX).WithFrame(1)

	sup := Context{Supervisor: true, SMEP: true, SMAP: true, WP: true, PKSEnabled: true}
	usr := Context{Supervisor: false}

	cases := []struct {
		name string
		pte  PTE
		kind AccessKind
		ctx  Context
		want FaultReason
	}{
		{"user reads own page", userRW, Read, usr, FaultNone},
		{"user writes own page", userRW, Write, usr, FaultNone},
		{"user execs NX page", userRW, Execute, usr, FaultNXViolation},
		{"user execs RX page", userRX, Execute, usr, FaultNone},
		{"user writes RO page", userRX, Write, usr, FaultWrite},
		{"user touches kernel page", kernRW, Read, usr, FaultUser},
		{"not present", PTE(0), Read, usr, FaultNotPresent},
		{"supervisor reads user page (SMAP)", userRW, Read, sup, FaultSMAP},
		{"supervisor writes user page (SMAP)", userRW, Write, sup, FaultSMAP},
		{"supervisor execs user page (SMEP)", userRX, Execute, sup, FaultSMEP},
		{"supervisor writes RO kernel page (WP)", kernRO, Write, sup, FaultWrite},
		{"supervisor reads kernel page", kernRW, Read, sup, FaultNone},
	}
	for _, c := range cases {
		f := Check(0x1000, c.pte, c.kind, c.ctx)
		got := FaultNone
		if f != nil {
			got = f.Reason
		}
		if got != c.want {
			t.Errorf("%s: got %v want %v", c.name, got, c.want)
		}
	}
}

func TestCheckSTACSuspendsSMAP(t *testing.T) {
	userRW := (Present | Writable | User | NX).WithFrame(1)
	ctx := Context{Supervisor: true, SMAP: true, ACFlag: true, WP: true}
	if f := Check(0, userRW, Read, ctx); f != nil {
		t.Fatalf("AC flag did not suspend SMAP: %v", f)
	}
}

func TestCheckPKS(t *testing.T) {
	kern := (Present | Writable | NX).WithFrame(1).WithKey(3)
	base := Context{Supervisor: true, WP: true, PKSEnabled: true}

	ad := base
	ad.PKRS = PKRSSet(0, 3, true, false)
	if f := Check(0, kern, Read, ad); f == nil || f.Reason != FaultPKeyAccess {
		t.Fatalf("AD not enforced: %v", f)
	}
	wd := base
	wd.PKRS = PKRSSet(0, 3, false, true)
	if f := Check(0, kern, Read, wd); f != nil {
		t.Fatalf("WD blocked a read: %v", f)
	}
	if f := Check(0, kern, Write, wd); f == nil || f.Reason != FaultPKeyWrite {
		t.Fatalf("WD not enforced on write: %v", f)
	}
	// Other keys unaffected.
	other := (Present | Writable | NX).WithFrame(1).WithKey(4)
	if f := Check(0, other, Write, ad); f != nil {
		t.Fatalf("wrong key affected: %v", f)
	}
	// PKS never applies to user pages.
	user := (Present | Writable | User | NX).WithFrame(1).WithKey(3)
	usrCtx := Context{Supervisor: false, PKSEnabled: true, PKRS: PKRSDisableAll}
	if f := Check(0, user, Write, usrCtx); f != nil {
		t.Fatalf("PKS applied to user access: %v", f)
	}
}

// Property: for supervisor data accesses, PKRSDisableAll blocks every
// keyed kernel page, PKRSAllowAll never blocks on key grounds.
func TestPKRSProperty(t *testing.T) {
	f := func(key uint8, write bool) bool {
		pte := (Present | Writable | NX).WithFrame(2).WithKey(key % 16)
		kind := Read
		if write {
			kind = Write
		}
		deny := Context{Supervisor: true, WP: true, PKSEnabled: true, PKRS: PKRSDisableAll}
		allow := Context{Supervisor: true, WP: true, PKSEnabled: true, PKRS: PKRSAllowAll}
		return Check(0, pte, kind, deny) != nil && Check(0, pte, kind, allow) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSharedUpperLevels(t *testing.T) {
	// Two address spaces sharing a PML4 slot see each other's mappings in
	// that slot (the kernel-half sharing the monitor relies on).
	p := mem.NewPhysical(512 * mem.PageSize)
	alloc := func() (mem.Frame, error) { return p.Alloc(mem.OwnerKernel) }
	t1, err := New(p, alloc)
	if err != nil {
		t.Fatal(err)
	}
	kernelVA := Addr(0x8000_0000_0000)
	f, _ := p.Alloc(mem.OwnerKernel)
	if err := t1.Map(kernelVA, (Present | Writable).WithFrame(f)); err != nil {
		t.Fatal(err)
	}
	t2, err := New(p, alloc)
	if err != nil {
		t.Fatal(err)
	}
	// Copy slot 256.
	src := mem.Addr(t1.Root.Base()) + 256*8
	dst := mem.Addr(t2.Root.Base()) + 256*8
	e, _ := ReadPTE(p, src)
	if err := WritePTE(p, dst, e); err != nil {
		t.Fatal(err)
	}
	// A later mapping through t1's shared subtree is visible in t2.
	f2, _ := p.Alloc(mem.OwnerKernel)
	if err := t1.Map(kernelVA+mem.PageSize, Present.WithFrame(f2)); err != nil {
		t.Fatal(err)
	}
	got, _, fault := t2.Walk(kernelVA + mem.PageSize)
	if fault != nil || got.Frame() != f2 {
		t.Fatalf("shared subtree not visible: %v %v", got, fault)
	}
}

// Regression: Walk used to collapse ReadPTE physical errors into
// FaultNotPresent, so a corrupt table pointer (frame outside physical
// memory) read as a benign soft fault and the fault path re-mapped instead
// of surfacing the corruption. Corruption at the intermediate and leaf
// levels must both come back as FaultTableCorrupt, and the cleanup/visit
// paths must propagate it instead of swallowing it.
func TestWalkSurfacesTableCorruption(t *testing.T) {
	tb, p := newTables(t)
	frame, _ := p.Alloc(mem.OwnerKernel)
	va := Addr(0x40_0000)
	if err := tb.Map(va, (Present | Writable | User).WithFrame(frame)); err != nil {
		t.Fatal(err)
	}

	// Corrupt the PML4 entry: keep Present, point it out of physical memory.
	slot := mem.Addr(tb.Root.Base()) // idx[0] == 0 for this va
	good, err := ReadPTE(p, slot)
	if err != nil {
		t.Fatal(err)
	}
	bad := good.WithFrame(mem.Frame(1 << 30))
	if err := WritePTE(p, slot, bad); err != nil {
		t.Fatal(err)
	}
	_, _, fault := tb.Walk(va)
	if fault == nil || fault.Reason != FaultTableCorrupt {
		t.Fatalf("intermediate corruption: got %v, want table-corrupt", fault)
	}
	// Unmap must surface the corruption, not skip it.
	if err := tb.Unmap(va); err == nil {
		t.Fatal("Unmap swallowed table corruption")
	}

	// Restore the top level, corrupt the last-level table pointer instead:
	// the leaf ReadPTE error path must report the same reason.
	if err := WritePTE(p, slot, good); err != nil {
		t.Fatal(err)
	}
	idx, _ := Split(va)
	table := tb.Root
	for l := 0; l < Levels-1; l++ {
		e, err := ReadPTE(p, table.Base()+mem.Addr(idx[l]*8))
		if err != nil {
			t.Fatal(err)
		}
		if l == Levels-2 {
			bad := e.WithFrame(mem.Frame(1 << 30))
			if err := WritePTE(p, table.Base()+mem.Addr(idx[l]*8), bad); err != nil {
				t.Fatal(err)
			}
			break
		}
		table = e.Frame()
	}
	_, _, fault = tb.Walk(va)
	if fault == nil || fault.Reason != FaultTableCorrupt {
		t.Fatalf("leaf-table corruption: got %v, want table-corrupt", fault)
	}

	// A genuinely missing mapping still reads as a plain soft fault.
	_, _, fault = tb.Walk(va + 0x100_0000)
	if fault == nil || fault.Reason != FaultNotPresent {
		t.Fatalf("missing mapping: got %v, want not-present", fault)
	}
}
