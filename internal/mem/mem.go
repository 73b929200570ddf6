// Package mem simulates the physical memory of a confidential virtual
// machine: 4 KiB frames with per-frame metadata (allocation state, owner,
// CVM private/shared visibility) plus named reserved regions such as the
// contiguous region Erebor's monitor carves out for sandbox confined memory.
package mem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

const (
	// PageSize is the only supported page size. Erebor's prototype disables
	// huge pages (§7 of the paper) and so does the simulation.
	PageSize  = 4096
	PageShift = 12
)

// Frame is a physical frame number (pfn).
type Frame uint64

// NoFrame is the sentinel for "no frame involved" (audit violations and
// other frame-optional records). No real frame can have this pfn: physical
// memory is sized in MiB, far below 2^64 pages.
const NoFrame Frame = ^Frame(0)

// Addr is a physical byte address.
type Addr uint64

// FrameOf returns the frame containing a physical address.
func FrameOf(a Addr) Frame { return Frame(a >> PageShift) }

// Base returns the first byte address of a frame.
func (f Frame) Base() Addr { return Addr(f) << PageShift }

// Owner identifies which software component a frame is accounted to.
type Owner uint32

// Well-known owners. User tasks and sandboxes get owners at or above
// OwnerTaskBase so that ownership checks can distinguish system frames from
// per-task frames.
const (
	OwnerNone     Owner = 0
	OwnerFirmware Owner = 1
	OwnerMonitor  Owner = 2
	OwnerKernel   Owner = 3
	OwnerDevice   Owner = 4
	// OwnerCommon marks frames belonging to Erebor common regions (shared
	// read-only across sandboxes).
	OwnerCommon   Owner = 5
	OwnerTaskBase Owner = 16
)

func (o Owner) String() string {
	switch o {
	case OwnerNone:
		return "none"
	case OwnerFirmware:
		return "firmware"
	case OwnerMonitor:
		return "monitor"
	case OwnerKernel:
		return "kernel"
	case OwnerDevice:
		return "device"
	case OwnerCommon:
		return "common"
	}
	return fmt.Sprintf("task-%d", uint32(o-OwnerTaskBase))
}

// FrameMeta is the per-frame simulation metadata.
type FrameMeta struct {
	Allocated bool
	// Shared marks CVM-shared memory: visible to the host and to device
	// DMA. Private (Shared=false) frames are protected by the TDX module.
	// Only the TDX module (internal/tdx) flips this, via MapGPA.
	Shared bool
	Owner  Owner
	// Pinned frames may not be reclaimed/swapped (sandbox confined memory).
	Pinned bool
	// Region is the name of the reserved region this frame came from, or ""
	// for the general pool.
	Region string
	// Refs is the sharing refcount for copy-on-write frames: 1 for an
	// exclusively owned frame, >1 while a snapshot template and its forked
	// sandboxes share it read-only. Free refuses shared frames; DecRef
	// releases the frame when the last reference drops.
	Refs uint32
}

// frameMeta is FrameMeta as stored. The region is an index into
// Physical.regionList instead of a name, so the table holds no pointers
// and the garbage collector never scans it: at 256 MB it has 65,536
// entries.
type frameMeta struct {
	allocated, shared, pinned bool
	region                    regionID
	owner                     Owner
	refs                      uint32
}

// regionID indexes Physical.regionList; 0 is the general pool.
type regionID uint8

// ErrTooManyRegions is returned by Reserve once every regionID is taken.
var ErrTooManyRegions = errors.New("mem: too many reserved regions")

// Region is a reserved set of frames with its own allocator. (The real
// CMA region is physically contiguous; the simulation only needs the
// reservation and accounting semantics.)
type Region struct {
	Name  string
	Count uint64

	pool []Frame // unallocated frames of this region
}

// Free frames remaining in the region.
func (r *Region) Free() int { return len(r.pool) }

// Physical is the machine's physical memory.
//
// A frame's 4 KiB is allocated the first time it is written (Bytes,
// WritePhys, CopyFrame from a written frame); until then it reads as
// zeros. A run touches a few MB of a memory sized in hundreds, and the
// garbage collector paces itself to the live heap, so backing all of it
// up front would let that much garbage build up between collections.
// Once allocated, a frame's backing never moves or drops, so every slice
// Bytes returned stays valid for the life of the Physical.
type Physical struct {
	nframes uint64
	frames  []*[PageSize]byte // nil: never written, reads as zeros
	meta    []frameMeta

	free       []Frame // general-pool free list (LIFO)
	regions    map[string]*Region
	regionList []*Region // by regionID; entry 0 (the general pool) is nil

	allocated uint64 // currently-allocated frame count (all pools)

	// shared indexes the frames whose FrameMeta.Shared is set, so the I6
	// audit visits the CVM-shared frames instead of all of memory. Every
	// write of the flag goes through setShared, which keeps it exact.
	shared map[Frame]struct{}
}

// NewPhysical creates a physical memory of size bytes (rounded down to a
// whole number of frames). All frames start unallocated and CVM-private.
func NewPhysical(size uint64) *Physical {
	n := size / PageSize
	if n == 0 {
		panic("mem: physical size smaller than one frame")
	}
	p := &Physical{
		nframes:    n,
		frames:     make([]*[PageSize]byte, n),
		meta:       make([]frameMeta, n),
		regions:    make(map[string]*Region),
		regionList: []*Region{nil},
		shared:     make(map[Frame]struct{}),
	}
	// Populate the free list so that low frames are handed out first, which
	// keeps traces readable and deterministic.
	p.free = make([]Frame, 0, n)
	for i := int64(n) - 1; i >= 0; i-- {
		p.free = append(p.free, Frame(i))
	}
	return p
}

// NumFrames returns the total number of physical frames.
func (p *Physical) NumFrames() uint64 { return p.nframes }

// AllocatedFrames returns the number of currently allocated frames.
func (p *Physical) AllocatedFrames() uint64 { return p.allocated }

// Reserve carves a named region of count frames out of the general pool,
// preferring the highest-numbered free frames.
func (p *Physical) Reserve(name string, count uint64) (*Region, error) {
	if _, ok := p.regions[name]; ok {
		return nil, fmt.Errorf("mem: region %q already reserved", name)
	}
	if count == 0 || count > uint64(len(p.free)) {
		return nil, fmt.Errorf("mem: cannot reserve %d frames (%d free)", count, len(p.free))
	}
	id := regionID(len(p.regionList))
	if int(id) != len(p.regionList) {
		return nil, fmt.Errorf("%w: cannot reserve %q", ErrTooManyRegions, name)
	}
	// The free list is ordered descending (Alloc pops low frames from the
	// tail), so its head holds the highest-numbered frames.
	r := &Region{Name: name, Count: count, pool: append([]Frame(nil), p.free[:count]...)}
	p.free = p.free[count:]
	p.regions[name] = r
	p.regionList = append(p.regionList, r)
	for _, f := range r.pool {
		p.meta[f].region = id
	}
	return r, nil
}

// RegionByName is for tests that count a reserved pool's free frames (the
// security, serve and monitor destroy tests). It returns a previously
// reserved region.
func (p *Physical) RegionByName(name string) (*Region, bool) {
	r, ok := p.regions[name]
	return r, ok
}

// Alloc allocates one frame from the general pool for owner.
func (p *Physical) Alloc(owner Owner) (Frame, error) {
	if len(p.free) == 0 {
		return 0, fmt.Errorf("mem: out of physical memory")
	}
	f := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	m := &p.meta[f]
	m.allocated = true
	m.owner = owner
	p.setShared(f, false)
	m.pinned = false
	m.refs = 1
	p.allocated++
	return f, nil
}

// AllocRegion allocates one frame from the named reserved region.
func (p *Physical) AllocRegion(name string, owner Owner) (Frame, error) {
	r, ok := p.regions[name]
	if !ok {
		return 0, fmt.Errorf("mem: no region %q", name)
	}
	if len(r.pool) == 0 {
		return 0, fmt.Errorf("mem: region %q exhausted", name)
	}
	f := r.pool[len(r.pool)-1]
	r.pool = r.pool[:len(r.pool)-1]
	m := &p.meta[f]
	m.allocated = true
	m.owner = owner
	p.setShared(f, false)
	// Region frames can have the pin bit flipped between allocations (the
	// monitor pins confined frames after AllocRegion and Free is not the only
	// path that toggles it); hand the frame out unpinned like Alloc does, or
	// a stale pin defeats the reclaim denial and the pinned-frame audit.
	m.pinned = false
	m.refs = 1
	p.allocated++
	return f, nil
}

// Free releases a frame back to its pool and zeroes its metadata. The
// caller is responsible for scrubbing contents if confidentiality requires
// it (the monitor zeroes sandbox frames explicitly).
func (p *Physical) Free(f Frame) error {
	if err := p.check(f); err != nil {
		return err
	}
	m := &p.meta[f]
	if !m.allocated {
		return fmt.Errorf("mem: double free of frame %d", f)
	}
	if m.refs > 1 {
		return fmt.Errorf("mem: free of shared frame %d (refcount %d)", f, m.refs)
	}
	m.allocated = false
	m.owner = OwnerNone
	m.pinned = false
	p.setShared(f, false)
	m.refs = 0
	p.allocated--
	if m.region != 0 {
		r := p.regionList[m.region]
		r.pool = append(r.pool, f)
	} else {
		p.free = append(p.free, f)
	}
	return nil
}

func (p *Physical) check(f Frame) error {
	if uint64(f) >= p.nframes {
		return fmt.Errorf("mem: frame %d out of range (%d frames)", f, p.nframes)
	}
	return nil
}

// Meta returns a copy of the frame's metadata.
func (p *Physical) Meta(f Frame) (FrameMeta, error) {
	if err := p.check(f); err != nil {
		return FrameMeta{}, err
	}
	m := &p.meta[f]
	out := FrameMeta{Allocated: m.allocated, Shared: m.shared, Owner: m.owner, Pinned: m.pinned, Refs: m.refs}
	if m.region != 0 {
		out.Region = p.regionList[m.region].Name
	}
	return out, nil
}

// SetPinned marks a frame pinned or unpinned.
func (p *Physical) SetPinned(f Frame, pinned bool) error {
	if err := p.check(f); err != nil {
		return err
	}
	p.meta[f].pinned = pinned
	return nil
}

// SetShared flips CVM private/shared state. Only internal/tdx should call
// this; it is exported because the TDX module lives in a sibling package.
func (p *Physical) SetShared(f Frame, shared bool) error {
	if err := p.check(f); err != nil {
		return err
	}
	p.setShared(f, shared)
	return nil
}

// setShared is the only writer of the shared flag; it updates the shared
// index when the flag actually flips.
func (p *Physical) setShared(f Frame, shared bool) {
	m := &p.meta[f]
	if m.shared == shared {
		return
	}
	m.shared = shared
	if shared {
		p.shared[f] = struct{}{}
	} else {
		delete(p.shared, f)
	}
}

// SharedFrames returns the CVM-shared frames in ascending order, in time
// proportional to their number rather than to the size of memory.
func (p *Physical) SharedFrames() []Frame {
	out := make([]Frame, 0, len(p.shared))
	for f := range p.shared {
		out = append(out, f)
	}
	slices.Sort(out)
	return out
}

// Bytes returns the backing slice of one frame, backing it if it was
// never written. The slice aliases the simulation's physical memory:
// writes through it are real, and it stays valid however the frame is
// later zeroed, copied into, freed or reallocated.
func (p *Physical) Bytes(f Frame) ([]byte, error) {
	if err := p.check(f); err != nil {
		return nil, err
	}
	return p.backing(f)[:], nil
}

// backing returns frame f's 4 KiB, allocating it on first use.
func (p *Physical) backing(f Frame) *[PageSize]byte {
	b := p.frames[f]
	if b == nil {
		b = new([PageSize]byte)
		p.frames[f] = b
	}
	return b
}

// inRange reports whether [a, a+n) lies inside physical memory without the
// sum a+n, which wraps for addresses near 2^64 and would let a huge address
// pass the check and index past the frame table.
func (p *Physical) inRange(a Addr, n int) bool {
	size := p.nframes * PageSize
	return uint64(a) <= size && uint64(n) <= size-uint64(a)
}

// ReadPhys copies len(buf) bytes from physical address a. Frames never
// written read as zeros and stay unbacked.
func (p *Physical) ReadPhys(a Addr, buf []byte) error {
	if !p.inRange(a, len(buf)) {
		return fmt.Errorf("mem: physical read out of range at %#x", a)
	}
	for len(buf) > 0 {
		off := a % PageSize
		n := min(len(buf), PageSize-int(off))
		if b := p.frames[FrameOf(a)]; b != nil {
			copy(buf[:n], b[off:])
		} else {
			clear(buf[:n])
		}
		buf, a = buf[n:], a+Addr(n)
	}
	return nil
}

// WritePhys copies buf to physical address a.
func (p *Physical) WritePhys(a Addr, buf []byte) error {
	if !p.inRange(a, len(buf)) {
		return fmt.Errorf("mem: physical write out of range at %#x", a)
	}
	for len(buf) > 0 {
		n := copy(p.backing(FrameOf(a))[a%PageSize:], buf)
		buf, a = buf[n:], a+Addr(n)
	}
	return nil
}

// ReadWord loads the aligned little-endian 8-byte word at physical address
// a: one page-table entry, as a page walk reads one per level. A frame
// never written reads 0 and stays unbacked. An unaligned or out-of-range
// address is an error.
func (p *Physical) ReadWord(a Addr) (uint64, error) {
	if a%8 != 0 {
		return 0, fmt.Errorf("mem: unaligned physical word read at %#x", a)
	}
	if !p.inRange(a, 8) {
		return 0, fmt.Errorf("mem: physical read out of range at %#x", a)
	}
	b := p.frames[FrameOf(a)]
	if b == nil {
		return 0, nil
	}
	return binary.LittleEndian.Uint64(b[a%PageSize:]), nil
}

// WriteWord stores v as the aligned little-endian 8-byte word at physical
// address a, backing its frame as WritePhys does. An unaligned or
// out-of-range address is an error.
func (p *Physical) WriteWord(a Addr, v uint64) error {
	if a%8 != 0 {
		return fmt.Errorf("mem: unaligned physical word write at %#x", a)
	}
	if !p.inRange(a, 8) {
		return fmt.Errorf("mem: physical write out of range at %#x", a)
	}
	binary.LittleEndian.PutUint64(p.backing(FrameOf(a))[a%PageSize:], v)
	return nil
}

// Zero clears the contents of a frame. A frame never written is already
// zero and stays unbacked.
func (p *Physical) Zero(f Frame) error {
	if err := p.check(f); err != nil {
		return err
	}
	if b := p.frames[f]; b != nil {
		clear(b[:])
	}
	return nil
}

// RefCount returns a frame's sharing refcount (0 for unallocated frames).
func (p *Physical) RefCount(f Frame) (uint32, error) {
	if err := p.check(f); err != nil {
		return 0, err
	}
	return p.meta[f].refs, nil
}

// IncRef adds a copy-on-write reference to an allocated frame.
func (p *Physical) IncRef(f Frame) error {
	if err := p.check(f); err != nil {
		return err
	}
	m := &p.meta[f]
	if !m.allocated {
		return fmt.Errorf("mem: incref of unallocated frame %d", f)
	}
	m.refs++
	return nil
}

// DecRef drops one reference from a shared frame. When the last reference
// drops the frame is released back to its pool (contents are NOT scrubbed;
// the monitor zeroes confidential frames before the final DecRef). Returns
// the remaining refcount.
func (p *Physical) DecRef(f Frame) (uint32, error) {
	if err := p.check(f); err != nil {
		return 0, err
	}
	m := &p.meta[f]
	if !m.allocated || m.refs == 0 {
		return 0, fmt.Errorf("mem: decref of unreferenced frame %d", f)
	}
	m.refs--
	if m.refs > 0 {
		return m.refs, nil
	}
	// Last reference: Free handles pool return; it checks Refs>1, which no
	// longer holds.
	return 0, p.Free(f)
}

// CopyFrame copies the full contents of frame src into frame dst (the
// copy-on-write break primitive). Both frames must be allocated. A source
// never written clears dst, and leaves a dst never written unbacked.
func (p *Physical) CopyFrame(dst, src Frame) error {
	if err := p.check(dst); err != nil {
		return err
	}
	if err := p.check(src); err != nil {
		return err
	}
	if !p.meta[dst].allocated || !p.meta[src].allocated {
		return fmt.Errorf("mem: copy between unallocated frames %d <- %d", dst, src)
	}
	if s := p.frames[src]; s != nil {
		*p.backing(dst) = *s
	} else if d := p.frames[dst]; d != nil {
		clear(d[:])
	}
	return nil
}

// FreeFrames is for the serve tests, which check that a run returns every
// general-pool frame. It returns how many remain unallocated.
func (p *Physical) FreeFrames() int { return len(p.free) }
