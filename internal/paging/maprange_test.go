package paging

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/mem"
)

// mapEvent is one observable step of a mapping: a PTP allocation or a leaf
// PTE write, in the order the hooks saw them.
type mapEvent struct {
	alloc bool
	frame mem.Frame // allocated PTP (alloc)
	addr  mem.Addr  // written entry (PTE write)
	pte   PTE
}

// recTables is an address space whose allocator and hooks record every
// step, with a PTP budget so allocation can be made to fail midway.
type recTables struct {
	p      *mem.Physical
	tb     *Tables
	budget int // PTP allocations left; negative = unlimited
	allocs []mem.Frame
	events []mapEvent
	mark   int // len(allocs) when the mapping under test began
}

var errNoPTP = errors.New("test: PTP budget exhausted")

func newRecTables(t *testing.T) *recTables {
	t.Helper()
	r := &recTables{p: mem.NewPhysical(64 * mem.PageSize), budget: -1}
	tb, err := New(r.p, func() (mem.Frame, error) {
		if r.budget == 0 {
			return 0, errNoPTP
		}
		r.budget--
		f, err := r.p.Alloc(mem.OwnerKernel)
		r.allocs = append(r.allocs, f)
		return f, err
	})
	if err != nil {
		t.Fatal(err)
	}
	tb.OnPTPAlloc = func(f mem.Frame) { r.events = append(r.events, mapEvent{alloc: true, frame: f}) }
	tb.OnPTEWrite = func(a mem.Addr, e PTE) { r.events = append(r.events, mapEvent{addr: a, pte: e}) }
	r.tb = tb
	return r
}

// mapEach is the reference: n Map calls in page order, stopping at the
// first error.
func mapEach(tb *Tables, v Addr, leaf PTE, n uint64) error {
	for i := uint64(0); i < n; i++ {
		if err := tb.Map(v+Addr(i)<<mem.PageShift, leaf.WithFrame(leaf.Frame()+mem.Frame(i))); err != nil {
			return err
		}
	}
	return nil
}

// sameState reports the first difference between two recorded address
// spaces: allocation order, hook sequence, or any byte of memory.
func sameState(a, b *recTables) error {
	if fmt.Sprint(a.allocs) != fmt.Sprint(b.allocs) {
		return fmt.Errorf("AllocPTP order %v, want %v", a.allocs, b.allocs)
	}
	if len(a.events) != len(b.events) {
		return fmt.Errorf("%d hook calls, want %d", len(a.events), len(b.events))
	}
	for i := range a.events {
		if a.events[i] != b.events[i] {
			return fmt.Errorf("hook call %d is %+v, want %+v", i, a.events[i], b.events[i])
		}
	}
	ba, bb := make([]byte, mem.PageSize), make([]byte, mem.PageSize)
	for f := mem.Frame(0); uint64(f) < a.p.NumFrames(); f++ {
		if err := a.p.ReadPhys(f.Base(), ba); err != nil {
			return err
		}
		if err := b.p.ReadPhys(f.Base(), bb); err != nil {
			return err
		}
		if !bytes.Equal(ba, bb) {
			return fmt.Errorf("frame %d differs", f)
		}
	}
	return nil
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestMapRangeMatchesMap checks MapRange against n Map calls on twin
// address spaces: from the first, a middle and the last entry of a leaf
// table; runs that end inside it, fill it, spill one page over and span
// three tables; tables just below a 1 GiB and a 512 GiB boundary, so runs
// cross into a new page directory and a new PML4 slot; supervisor and user
// leaves; empty tables and tables whose path already exists, with and
// without User. Every PTP byte, the AllocPTP order, the OnPTPAlloc and
// OnPTEWrite sequence and the error must match, also when AllocPTP fails
// at each allocation the run makes.
func TestMapRangeMatchesMap(t *testing.T) {
	const tableSpan = EntriesPerPT * mem.PageSize // one leaf table: 2 MiB
	bases := []struct {
		name string
		v    Addr
	}{
		{"4MiB", 0x40_0000},
		{"below-1GiB", 1<<30 - tableSpan},
		{"below-512GiB", 1<<39 - tableSpan},
	}
	starts := []int{0, 200, EntriesPerPT - 1}
	counts := []uint64{1, 511, 512, 513, 1031}
	leaves := []struct {
		name string
		pte  PTE
	}{
		{"supervisor", (Present | Writable | NX).WithFrame(0x1000)},
		{"user", (Present | Writable | User).WithFrame(0x2000)},
	}
	prestates := []struct {
		name string
		pte  PTE // leaf mapped at the start page first (0: none)
	}{
		{"empty", 0},
		{"path", (Present | NX).WithFrame(0x999)},
		{"user-path", (Present | User).WithFrame(0x999)},
	}
	for _, base := range bases {
		for _, start := range starts {
			v := base.v + Addr(start)*mem.PageSize
			for _, n := range counts {
				for _, leaf := range leaves {
					for _, pre := range prestates {
						name := fmt.Sprintf("%s+%d/n=%d/%s/%s", base.name, start, n, leaf.name, pre.name)
						checkMapRange(t, name, v, leaf.pte, n, pre.pte)
					}
				}
			}
		}
	}
}

// checkMapRange compares MapRange with n Map calls for one case, then with
// AllocPTP failing at each allocation the full run makes.
func checkMapRange(t *testing.T, name string, v Addr, leaf PTE, n uint64, pre PTE) {
	t.Helper()
	run := func(budget int, bulk bool) (*recTables, error) {
		r := newRecTables(t)
		if pre != 0 {
			if err := r.tb.Map(v, pre); err != nil {
				t.Fatalf("%s: premapping: %v", name, err)
			}
		}
		r.budget, r.mark = budget, len(r.allocs)
		if bulk {
			return r, r.tb.MapRange(v, leaf, n)
		}
		return r, mapEach(r.tb, v, leaf, n)
	}
	want, wantErr := run(-1, false)
	got, err := run(-1, true)
	if wantErr != nil || err != nil {
		t.Fatalf("%s: MapRange error %v, Map error %v", name, err, wantErr)
	}
	if d := sameState(got, want); d != nil {
		t.Fatalf("%s: %v", name, d)
	}
	// An independent read-back: every page translates to its own frame.
	for i := uint64(0); i < n; i++ {
		e, _, f := got.tb.Walk(v + Addr(i)<<mem.PageShift)
		if f != nil || e != leaf.WithFrame(leaf.Frame()+mem.Frame(i)) {
			t.Fatalf("%s: page %d walks to %#x (%v)", name, i, uint64(e), f)
		}
	}
	for budget := 0; budget < len(want.allocs)-want.mark; budget++ {
		want, wantErr := run(budget, false)
		got, err := run(budget, true)
		if !errors.Is(wantErr, errNoPTP) || errString(err) != errString(wantErr) {
			t.Fatalf("%s, %d PTPs: MapRange error %q, Map error %q", name, budget, errString(err), errString(wantErr))
		}
		if d := sameState(got, want); d != nil {
			t.Fatalf("%s, %d PTPs: %v", name, budget, d)
		}
	}
}

// A leaf-table pointer outside memory fails MapRange exactly as it fails
// Map: a physical write out of range at the first entry's address, with
// nothing written and no hook called.
func TestMapRangeCorruptLeafTable(t *testing.T) {
	const v = Addr(0x40_0000 + 7*mem.PageSize)
	leaf := (Present | Writable | NX).WithFrame(0x1000)
	twins := [2]*recTables{newRecTables(t), newRecTables(t)}
	for _, r := range twins {
		if err := r.tb.Map(v, leaf); err != nil {
			t.Fatal(err)
		}
		// Point the PD entry above v's leaf table out of memory.
		table := r.tb.Root
		idx, _ := Split(v)
		for l := 0; l < Levels-2; l++ {
			e, err := ReadPTE(r.p, entryAddr(table, idx[l]))
			if err != nil {
				t.Fatal(err)
			}
			table = e.Frame()
		}
		a := entryAddr(table, idx[Levels-2])
		e, err := ReadPTE(r.p, a)
		if err != nil {
			t.Fatal(err)
		}
		if err := WritePTE(r.p, a, e.WithFrame(1<<30)); err != nil {
			t.Fatal(err)
		}
	}
	wantErr := mapEach(twins[0].tb, v, leaf, 600)
	err := twins[1].tb.MapRange(v, leaf, 600)
	want := fmt.Sprintf("mem: physical write out of range at %#x", entryAddr(1<<30, 7))
	if errString(err) != want || errString(wantErr) != want {
		t.Fatalf("MapRange error %q, Map error %q, want %q", errString(err), errString(wantErr), want)
	}
	if d := sameState(twins[1], twins[0]); d != nil {
		t.Fatal(d)
	}
}
