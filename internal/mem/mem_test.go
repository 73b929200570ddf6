package mem

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

func TestAllocFreeRoundTrip(t *testing.T) {
	p := NewPhysical(64 * PageSize)
	f, err := p.Alloc(OwnerKernel)
	if err != nil {
		t.Fatal(err)
	}
	meta, _ := p.Meta(f)
	if !meta.Allocated || meta.Owner != OwnerKernel {
		t.Fatalf("meta after alloc: %+v", meta)
	}
	if err := p.Free(f); err != nil {
		t.Fatal(err)
	}
	meta, _ = p.Meta(f)
	if meta.Allocated || meta.Owner != OwnerNone {
		t.Fatalf("meta after free: %+v", meta)
	}
	if err := p.Free(f); err == nil {
		t.Fatal("double free accepted")
	}
}

func TestAllocExhaustion(t *testing.T) {
	p := NewPhysical(4 * PageSize)
	for i := 0; i < 4; i++ {
		if _, err := p.Alloc(OwnerKernel); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if _, err := p.Alloc(OwnerKernel); err == nil {
		t.Fatal("allocated beyond capacity")
	}
}

func TestReserveTakesHighFrames(t *testing.T) {
	p := NewPhysical(64 * PageSize)
	r, err := p.Reserve("top", 8)
	if err != nil {
		t.Fatal(err)
	}
	if r.Count != 8 || r.Free() != 8 {
		t.Fatalf("region: count=%d free=%d", r.Count, r.Free())
	}
	f, err := p.AllocRegion("top", OwnerMonitor)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(f) < 56 {
		t.Fatalf("region frame %d not in the top 8", f)
	}
	meta, _ := p.Meta(f)
	if meta.Region != "top" {
		t.Fatalf("region tag %q", meta.Region)
	}
	// Freeing returns to the region pool, not the general pool.
	if err := p.Free(f); err != nil {
		t.Fatal(err)
	}
	if r.Free() != 8 {
		t.Fatalf("region free=%d after return", r.Free())
	}
	// General allocations never hand out reserved frames.
	for {
		g, err := p.Alloc(OwnerKernel)
		if err != nil {
			break
		}
		if m, _ := p.Meta(g); m.Region != "" {
			t.Fatalf("general alloc returned reserved frame %d", g)
		}
	}
}

func TestReserveConflicts(t *testing.T) {
	p := NewPhysical(16 * PageSize)
	if _, err := p.Reserve("a", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Reserve("a", 2); err == nil {
		t.Fatal("duplicate region name accepted")
	}
	if _, err := p.Reserve("big", 1000); err == nil {
		t.Fatal("oversized reservation accepted")
	}
}

func TestPhysReadWrite(t *testing.T) {
	p := NewPhysical(8 * PageSize)
	data := []byte("hello physical memory")
	if err := p.WritePhys(100, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := p.ReadPhys(100, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatalf("got %q", got)
	}
	if err := p.WritePhys(Addr(8*PageSize-2), data); err == nil {
		t.Fatal("out-of-range write accepted")
	}
}

func TestBytesAliasesMemory(t *testing.T) {
	p := NewPhysical(8 * PageSize)
	f, _ := p.Alloc(OwnerKernel)
	b, err := p.Bytes(f)
	if err != nil {
		t.Fatal(err)
	}
	b[0] = 0xAB
	var got [1]byte
	if err := p.ReadPhys(f.Base(), got[:]); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xAB {
		t.Fatal("Bytes slice does not alias physical memory")
	}
	if err := p.Zero(f); err != nil {
		t.Fatal(err)
	}
	if b[0] != 0 {
		t.Fatal("Zero did not clear the frame")
	}
}

func TestSharedPinnedFlags(t *testing.T) {
	p := NewPhysical(8 * PageSize)
	f, _ := p.Alloc(OwnerDevice)
	if err := p.SetShared(f, true); err != nil {
		t.Fatal(err)
	}
	if err := p.SetPinned(f, true); err != nil {
		t.Fatal(err)
	}
	m, _ := p.Meta(f)
	if !m.Shared || !m.Pinned {
		t.Fatalf("flags: %+v", m)
	}
	// Free clears both.
	_ = p.Free(f)
	m, _ = p.Meta(f)
	if m.Shared || m.Pinned {
		t.Fatalf("flags survive free: %+v", m)
	}
}

// Property: frame/address conversions are inverse.
func TestFrameAddrRoundTrip(t *testing.T) {
	f := func(n uint32) bool {
		fr := Frame(n)
		return FrameOf(fr.Base()) == fr && FrameOf(fr.Base()+PageSize-1) == fr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: allocation count bookkeeping is exact under alloc/free churn.
func TestAllocatedCountInvariant(t *testing.T) {
	p := NewPhysical(128 * PageSize)
	var live []Frame
	seq := func(op uint8) bool {
		if op%3 != 0 || len(live) == 0 {
			if f, err := p.Alloc(OwnerKernel); err == nil {
				live = append(live, f)
			}
		} else {
			f := live[len(live)-1]
			live = live[:len(live)-1]
			if err := p.Free(f); err != nil {
				return false
			}
		}
		return p.AllocatedFrames() == uint64(len(live))
	}
	if err := quick.Check(seq, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Regression: both allocators must hand out frames unpinned. AllocRegion
// used to skip the Pinned reset, so a frame whose pin bit was flipped
// between Free and re-allocation (SetPinned is not gated on allocation
// state) came back stale-pinned and defeated the monitor's reclaim denial.
func TestAllocClearsStalePin(t *testing.T) {
	p := NewPhysical(64 * PageSize)
	if _, err := p.Reserve("cma", 8); err != nil {
		t.Fatal(err)
	}
	allocs := map[string]func() (Frame, error){
		"general": func() (Frame, error) { return p.Alloc(OwnerKernel) },
		"region":  func() (Frame, error) { return p.AllocRegion("cma", OwnerMonitor) },
	}
	for name, alloc := range allocs {
		f, err := alloc()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := p.Free(f); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Pin the free frame out-of-band, then re-allocate it.
		if err := p.SetPinned(f, true); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g, err := alloc()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g != f {
			t.Fatalf("%s: LIFO pool did not return frame %d (got %d)", name, f, g)
		}
		m, _ := p.Meta(g)
		if m.Pinned {
			t.Fatalf("%s allocator returned a stale-pinned frame", name)
		}
		_ = p.Free(g)
	}
}

// Regression: the ReadPhys/WritePhys bounds checks used the sum
// a+len(buf), which wraps for addresses near 2^64 — the access then passed
// the check and panicked slicing p.data.
func TestPhysReadWriteOverflowAddr(t *testing.T) {
	p := NewPhysical(8 * PageSize)
	a := ^Addr(0) - 8
	buf := make([]byte, 16)
	if err := p.ReadPhys(a, buf); err == nil {
		t.Fatal("wrapping read address accepted")
	}
	if err := p.WritePhys(a, buf); err == nil {
		t.Fatal("wrapping write address accepted")
	}
	// Edge case: zero-length access at the exact end of memory is legal...
	if err := p.ReadPhys(Addr(8*PageSize), nil); err != nil {
		t.Fatalf("zero-length read at end: %v", err)
	}
	// ...but one byte past is not.
	if err := p.ReadPhys(Addr(8*PageSize), make([]byte, 1)); err == nil {
		t.Fatal("read past end accepted")
	}
}

func TestRefCounts(t *testing.T) {
	p := NewPhysical(16 * PageSize)
	f, _ := p.Alloc(OwnerKernel)
	if n, _ := p.RefCount(f); n != 1 {
		t.Fatalf("fresh frame refcount %d", n)
	}
	if err := p.IncRef(f); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(f); err == nil {
		t.Fatal("freed a shared frame")
	}
	if n, err := p.DecRef(f); err != nil || n != 1 {
		t.Fatalf("decref: n=%d err=%v", n, err)
	}
	if n, err := p.DecRef(f); err != nil || n != 0 {
		t.Fatalf("final decref: n=%d err=%v", n, err)
	}
	m, _ := p.Meta(f)
	if m.Allocated || m.Refs != 0 {
		t.Fatalf("meta after final decref: %+v", m)
	}
	if _, err := p.DecRef(f); err == nil {
		t.Fatal("decref of unallocated frame accepted")
	}
	if err := p.IncRef(f); err == nil {
		t.Fatal("incref of unallocated frame accepted")
	}
}

func TestCopyFrame(t *testing.T) {
	p := NewPhysical(16 * PageSize)
	src, _ := p.Alloc(OwnerKernel)
	dst, _ := p.Alloc(OwnerKernel)
	sb, _ := p.Bytes(src)
	for i := range sb {
		sb[i] = byte(i)
	}
	if err := p.CopyFrame(dst, src); err != nil {
		t.Fatal(err)
	}
	db, _ := p.Bytes(dst)
	for i := range db {
		if db[i] != byte(i) {
			t.Fatalf("byte %d: %d", i, db[i])
		}
	}
	free := Frame(10)
	if err := p.CopyFrame(free, src); err == nil {
		t.Fatal("copy into unallocated frame accepted")
	}
	if err := p.CopyFrame(dst, Frame(1<<20)); err == nil {
		t.Fatal("copy from out-of-range frame accepted")
	}
}

func TestOwnerString(t *testing.T) {
	cases := map[Owner]string{
		OwnerNone: "none", OwnerMonitor: "monitor", OwnerKernel: "kernel",
		OwnerCommon: "common", OwnerTaskBase + 3: "task-3",
	}
	for o, want := range cases {
		if o.String() != want {
			t.Errorf("%d.String() = %q, want %q", o, o.String(), want)
		}
	}
}

// Property: the shared-frame index always equals a brute-force scan of the
// metadata for Shared frames, under random Alloc/AllocRegion/Free/SetShared
// churn (including SetShared on free frames and no-op re-sets).
func TestSharedIndexMatchesMetaScan(t *testing.T) {
	p := NewPhysical(96 * PageSize)
	if _, err := p.Reserve("io", 16); err != nil {
		t.Fatal(err)
	}
	var live []Frame
	check := func() bool {
		var want []Frame
		for f := Frame(0); uint64(f) < p.NumFrames(); f++ {
			if m, _ := p.Meta(f); m.Shared {
				want = append(want, f)
			}
		}
		if got := p.SharedFrames(); !slices.Equal(got, want) {
			t.Logf("index %v, scan %v", got, want)
			return false
		}
		return true
	}
	sawShared := false
	step := func(op uint8, arg uint16) bool {
		switch op % 4 {
		case 0:
			if f, err := p.Alloc(OwnerKernel); err == nil {
				live = append(live, f)
			}
		case 1:
			if f, err := p.AllocRegion("io", OwnerDevice); err == nil {
				live = append(live, f)
			}
		case 2:
			if len(live) > 0 {
				i := int(arg) % len(live)
				if err := p.Free(live[i]); err != nil {
					t.Logf("free: %v", err)
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
		case 3:
			// Any frame, allocated or not: the index follows the flag.
			f := Frame(int(arg) % int(p.NumFrames()))
			if err := p.SetShared(f, op&0x80 == 0); err != nil {
				return false
			}
		}
		sawShared = sawShared || len(p.SharedFrames()) > 0
		return check()
	}
	if err := quick.Check(step, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	if !sawShared {
		t.Fatal("the sequence never shared a frame")
	}
}

// A frame never written reads as zeros, and neither reading nor zeroing
// it allocates its backing.
func TestUnbackedFrameReadsZero(t *testing.T) {
	p := NewPhysical(8 * PageSize)
	f, _ := p.Alloc(OwnerKernel)
	buf := bytes.Repeat([]byte{0xFF}, PageSize)
	if err := p.ReadPhys(f.Base(), buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, PageSize)) {
		t.Fatal("unbacked frame did not read as zeros")
	}
	if err := p.Zero(f); err != nil {
		t.Fatal(err)
	}
	if p.frames[f] != nil {
		t.Fatal("ReadPhys or Zero backed an unwritten frame")
	}
	if err := p.Zero(Frame(8)); err == nil {
		t.Fatal("zero of out-of-range frame accepted")
	}
}

// A slice from Bytes keeps aliasing its frame through everything that
// can happen to the frame afterwards.
func TestBytesAliasSurvivesFrameReuse(t *testing.T) {
	p := NewPhysical(8 * PageSize)
	f, _ := p.Alloc(OwnerKernel)
	b, _ := p.Bytes(f)
	b[7] = 0x11
	if err := p.Zero(f); err != nil {
		t.Fatal(err)
	}
	if err := p.WritePhys(f.Base()+7, []byte{0x22}); err != nil {
		t.Fatal(err)
	}
	if b[7] != 0x22 {
		t.Fatal("alias lost after Zero")
	}
	if err := p.Free(f); err != nil {
		t.Fatal(err)
	}
	g, _ := p.Alloc(OwnerKernel)
	if g != f {
		t.Fatalf("LIFO pool returned frame %d, want %d", g, f)
	}
	if err := p.WritePhys(g.Base()+7, []byte{0x33}); err != nil {
		t.Fatal(err)
	}
	if b[7] != 0x33 {
		t.Fatal("alias lost after Free and Alloc")
	}
	src, _ := p.Alloc(OwnerKernel)
	if err := p.WritePhys(src.Base()+7, []byte{0x44}); err != nil {
		t.Fatal(err)
	}
	if err := p.CopyFrame(g, src); err != nil {
		t.Fatal(err)
	}
	if b[7] != 0x44 {
		t.Fatal("alias lost after CopyFrame")
	}
}

// Accesses that straddle a written frame and an unwritten one.
func TestPhysAcrossUnbackedBoundary(t *testing.T) {
	p := NewPhysical(8 * PageSize)
	b, _ := p.Bytes(2)
	for i := range b {
		b[i] = 0xAA
	}
	// Read the last 4 bytes of frame 2 and the first 4 of unwritten frame 3.
	buf := bytes.Repeat([]byte{0xFF}, 8)
	if err := p.ReadPhys(3*PageSize-4, buf); err != nil {
		t.Fatal(err)
	}
	if want := []byte{0xAA, 0xAA, 0xAA, 0xAA, 0, 0, 0, 0}; !bytes.Equal(buf, want) {
		t.Fatalf("straddling read = %x, want %x", buf, want)
	}
	// The same the other way round: unwritten frame 1 into frame 2.
	if err := p.ReadPhys(2*PageSize-4, buf); err != nil {
		t.Fatal(err)
	}
	if want := []byte{0, 0, 0, 0, 0xAA, 0xAA, 0xAA, 0xAA}; !bytes.Equal(buf, want) {
		t.Fatalf("straddling read = %x, want %x", buf, want)
	}
	if p.frames[1] != nil || p.frames[3] != nil {
		t.Fatal("a straddling read backed an unwritten frame")
	}
	// A straddling write backs the unwritten side and reads back whole.
	data := []byte("01234567")
	if err := p.WritePhys(3*PageSize-4, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := p.ReadPhys(3*PageSize-4, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("straddling write read back %q, want %q", got, data)
	}
}

// CopyFrame from a frame never written clears the destination, and leaves
// an unwritten destination unbacked.
func TestCopyFrameFromUnbacked(t *testing.T) {
	p := NewPhysical(8 * PageSize)
	src, _ := p.Alloc(OwnerKernel)
	dst, _ := p.Alloc(OwnerKernel)
	other, _ := p.Alloc(OwnerKernel)
	db, _ := p.Bytes(dst)
	for i := range db {
		db[i] = 0x5A
	}
	if err := p.CopyFrame(dst, src); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(db, make([]byte, PageSize)) {
		t.Fatal("copy from an unwritten frame did not clear the destination")
	}
	if err := p.CopyFrame(other, src); err != nil {
		t.Fatal(err)
	}
	if p.frames[src] != nil || p.frames[other] != nil {
		t.Fatal("copy between unwritten frames backed one of them")
	}
}

// Memory is backed only where it is written: a 1 GiB machine with one
// page written costs its frame tables, not a gigabyte of heap.
func TestSparseBackingHeap(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p := NewPhysical(1 << 30)
	if err := p.WritePhys(12345*PageSize, bytes.Repeat([]byte{1}, PageSize)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(p)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 64<<20 {
		t.Fatalf("1 GiB memory with one page written grew the heap by %d MB", grew>>20)
	}
}

// Regions beyond what the frame table can index fail typed.
func TestReserveRegionLimit(t *testing.T) {
	p := NewPhysical(512 * PageSize)
	var last string
	for i := 1; ; i++ {
		name := string(rune('A'+i/26)) + string(rune('a'+i%26))
		if _, err := p.Reserve(name, 1); err != nil {
			if !errors.Is(err, ErrTooManyRegions) {
				t.Fatalf("region %d: %v", i, err)
			}
			if i != 256 {
				t.Fatalf("ran out of regions at %d, want 256", i)
			}
			break
		}
		last = name
	}
	f, err := p.AllocRegion(last, OwnerKernel)
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := p.Meta(f); m.Region != last {
		t.Fatalf("frame of region %q tagged %q", last, m.Region)
	}
	if err := p.Free(f); err != nil {
		t.Fatal(err)
	}
	if r, _ := p.RegionByName(last); r.Free() != 1 {
		t.Fatal("freed frame did not return to its region")
	}
}

// BenchmarkReadPhys8 reads one 8-byte word of a written frame through
// ReadWord: the read a page walk makes per level.
func BenchmarkReadPhys8(b *testing.B) {
	p := NewPhysical(64 * PageSize)
	f, _ := p.Alloc(OwnerKernel)
	if err := p.WriteWord(f.Base()+8, 0x0807060504030201); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.ReadWord(f.Base() + 8); err != nil {
			b.Fatal(err)
		}
	}
}

// ReadWord and WriteWord move one aligned little-endian word: an unbacked
// frame reads 0 and stays unbacked, the last word of memory is in range,
// and an unaligned or out-of-range address is refused without backing
// anything.
func TestWordAccess(t *testing.T) {
	const size = 8 * PageSize
	last := Addr(size - 8)
	cases := []struct {
		name    string
		addr    Addr
		write   bool
		v       uint64
		want    uint64
		wantErr string
	}{
		{name: "unbacked frame reads zero", addr: 2*PageSize + 16},
		{name: "word round trip", addr: 3*PageSize + 24, write: true, v: 0x1122334455667788, want: 0x1122334455667788},
		{name: "last word of memory", addr: last, write: true, v: 0xA5A5, want: 0xA5A5},
		{name: "unaligned read", addr: PageSize + 4, wantErr: "mem: unaligned physical word read at 0x1004"},
		{name: "unaligned write", addr: PageSize + 1, write: true, v: 1, wantErr: "mem: unaligned physical word write at 0x1001"},
		{name: "read past the end", addr: size, wantErr: "mem: physical read out of range at 0x8000"},
		{name: "write past the end", addr: size, write: true, v: 1, wantErr: "mem: physical write out of range at 0x8000"},
		{name: "wrapping read", addr: ^Addr(0) - 7, wantErr: "mem: physical read out of range at 0xfffffffffffffff8"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := NewPhysical(size)
			var err error
			if c.write {
				err = p.WriteWord(c.addr, c.v)
			} else {
				_, err = p.ReadWord(c.addr)
			}
			if c.wantErr != "" {
				if err == nil || err.Error() != c.wantErr {
					t.Fatalf("err = %v, want %q", err, c.wantErr)
				}
				for f := range p.frames {
					if p.frames[f] != nil {
						t.Fatalf("a refused access backed frame %d", f)
					}
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.ReadWord(c.addr)
			if err != nil || got != c.want {
				t.Fatalf("ReadWord = %#x, %v; want %#x", got, err, c.want)
			}
			backed := p.frames[FrameOf(c.addr)] != nil
			if backed != c.write {
				t.Fatalf("frame backed = %v after a write = %v", backed, c.write)
			}
			// The word is the same eight bytes ReadPhys sees.
			var b [8]byte
			if err := p.ReadPhys(c.addr, b[:]); err != nil {
				t.Fatal(err)
			}
			for i := range b {
				if b[i] != byte(c.want>>(8*i)) {
					t.Fatalf("ReadPhys byte %d = %#x, want %#x", i, b[i], byte(c.want>>(8*i)))
				}
			}
		})
	}
}
