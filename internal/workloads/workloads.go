// Package workloads defines the common shape of the paper's five
// real-world service scenarios (Table 5) plus helpers for reading shared
// datasets out of simulated memory. Each sub-package implements one
// scenario with a genuine (scaled-down) algorithm:
//
//	llm        — llama.cpp:   GPT-style transformer inference
//	imgproc    — yolo:        convolutional detection pipeline
//	retrieval  — drugbank:    in-memory hash-database retrieval
//	graph      — graphchi:    sharded PageRank
//	ids        — unicorn:     streaming provenance-graph sketching
package workloads

import (
	"encoding/binary"

	"github.com/asterisc-release/erebor-go/internal/kernel"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/paging"
)

// Workload is one runnable scenario.
type Workload interface {
	// Name is the paper's program name (llama.cpp, yolo, ...).
	Name() string
	// CommonData returns the shared read-only dataset (model, database),
	// or nil when the scenario uses only confined memory.
	CommonData() []byte
	// Input is the client request payload.
	Input() []byte
	// HeapPages sizes the confined LibOS heap.
	HeapPages() uint64
	// Threads is the worker-thread count (8 in the paper's runs).
	Threads() int
	// Run executes the service computation and returns the response.
	// commonVA is the attached common region base (0 if none).
	Run(ctx *Ctx) []byte
}

// Ctx carries the execution environment into a workload run.
type Ctx struct {
	E        *kernel.Env
	CommonVA paging.Addr
	Input    []byte
	// Alloc allocates confined memory (LibOS heap inside a sandbox, plain
	// mmap natively).
	Alloc func(n int) paging.Addr
	// Spawn creates a worker thread (LibOS thread pool inside a sandbox).
	Spawn func(name string, fn func(e *kernel.Env))
	// CPUIDEvery issues a cpuid (time-source probe -> #VE in a TD) every N
	// work items; 0 disables.
	CPUIDEvery int

	// Sync models one worker-pool synchronization point (thread barrier /
	// work-queue handoff). The driver supplies the configuration-specific
	// implementation: pthread/futex natively, userspace spinlocks under the
	// LibOS (§6.2 service 3). contended marks barriers where workers
	// actually wait.
	Sync func(contended bool)
	// SyncContendEvery makes every Nth sync point contended (default 4).
	SyncContendEvery int

	cpuidCount int
	syncCount  int
}

// SyncPoint is called by workloads at their natural barrier points.
func (c *Ctx) SyncPoint() {
	if c.Sync == nil {
		return
	}
	every := c.SyncContendEvery
	if every <= 0 {
		every = 4
	}
	c.syncCount++
	c.Sync(c.syncCount%every == 0)
}

// WorkTick is called once per work item; it fires the periodic cpuid.
func (c *Ctx) WorkTick() {
	if c.CPUIDEvery <= 0 {
		return
	}
	c.cpuidCount++
	if c.cpuidCount%c.CPUIDEvery == 0 {
		c.E.CPUID(1)
	}
}

// View is a window over a range of simulated user memory. It caches the
// per-page backing slices but re-probes the mapping on Touch so that
// memory-pressure eviction produces honest page faults.
type View struct {
	E    *kernel.Env
	Base paging.Addr
	Size int

	pages   [][]byte
	scratch [rowLanes][]byte // page-straddling rows, copied out one per lane
}

// rowLanes is how many weight rows DotRowsF32 and AxpyRowsF32 carry through
// one pass over the vector.
const rowLanes = 4

// NewView builds a view over [base, base+size).
func NewView(e *kernel.Env, base paging.Addr, size int) *View {
	n := (int(base&0xFFF) + size + mem.PageSize - 1) / mem.PageSize
	return &View{E: e, Base: base, Size: size, pages: make([][]byte, n)}
}

// page returns the cached backing slice of page idx, probing the mapping
// once if the slice is unknown. Between Touch passes the cached slice is
// used directly (a TLB-hit fast path); Touch re-probes every page so that
// memory-pressure eviction produces honest page faults at work-item
// granularity.
func (v *View) page(idx int) []byte {
	if b := v.pages[idx]; b != nil {
		return b
	}
	va := paging.PageBase(v.Base) + paging.Addr(idx*mem.PageSize)
	b := v.E.Page(va)
	v.pages[idx] = b
	return b
}

// Touch re-probes every page of the view, faulting evicted ones back in.
// Call once per work item (token, image, query batch) over shared data.
func (v *View) Touch() {
	for i := range v.pages {
		va := paging.PageBase(v.Base) + paging.Addr(i*mem.PageSize)
		if _, ok := v.E.T.P.AS.Translate(va); !ok || v.pages[i] == nil {
			v.pages[i] = v.E.Page(va)
		}
	}
}

// Byte reads the byte at offset off from Base.
func (v *View) Byte(off int) byte {
	a := int(v.Base&0xFFF) + off
	return v.page(a / mem.PageSize)[a%mem.PageSize]
}

// U32 reads a little-endian uint32 at offset off.
func (v *View) U32(off int) uint32 {
	a := int(v.Base&0xFFF) + off
	p, o := a/mem.PageSize, a%mem.PageSize
	if o+4 <= mem.PageSize {
		return binary.LittleEndian.Uint32(v.page(p)[o:])
	}
	var b [4]byte
	v.CopyOut(off, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// F32Row decodes the len(dst) float32s at offset off into dst (row-major
// weight rows; spans pages).
func (v *View) F32Row(off int, dst []float32) {
	b := v.row(0, off, len(dst))
	for i := range dst {
		dst[i] = f32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
}

// DotF32 returns the dot product of x with the len(x) float32s at offset
// off, accumulated in index order, decoding each weight straight from the
// page-resident bytes.
func (v *View) DotF32(off int, x []float32) float32 {
	b := v.row(0, off, len(x))
	var dot float32
	// len(b) == 4*len(x); testing it and re-slicing b, instead of indexing
	// b[4*i:], lets the compiler drop the per-element bounds checks.
	for i := 0; i < len(x) && len(b) >= 4; i++ {
		dot += f32frombits(binary.LittleEndian.Uint32(b)) * x[i]
		b = b[4:]
	}
	return dot
}

// DotRowsF32 sets out[r] to DotF32(off+r*stride, x) for every r. It reads
// rowLanes rows per pass over x, each into its own accumulator, so every
// row's sum is still one index-order chain while the chains of a pass
// overlap in the pipeline. The remainder rows go through DotF32.
func (v *View) DotRowsF32(off, stride int, x, out []float32) {
	r := 0
	for ; r+rowLanes <= len(out); r += rowLanes {
		o := off + r*stride
		b0 := v.row(0, o, len(x))
		b1 := v.row(1, o+stride, len(x))
		b2 := v.row(2, o+2*stride, len(x))
		b3 := v.row(3, o+3*stride, len(x))
		var d0, d1, d2, d3 float32
		for i, xi := range x {
			// The full slice expression fixes the word's capacity at 4,
			// which spares the compiler a pointer mask per load.
			j := 4 * i
			d0 += f32frombits(binary.LittleEndian.Uint32(b0[j:j+4:j+4])) * xi
			d1 += f32frombits(binary.LittleEndian.Uint32(b1[j:j+4:j+4])) * xi
			d2 += f32frombits(binary.LittleEndian.Uint32(b2[j:j+4:j+4])) * xi
			d3 += f32frombits(binary.LittleEndian.Uint32(b3[j:j+4:j+4])) * xi
		}
		out[r], out[r+1], out[r+2], out[r+3] = d0, d1, d2, d3
	}
	for ; r < len(out); r++ {
		out[r] = v.DotF32(off+r*stride, x)
	}
}

// AxpyF32 adds a times the len(dst) float32s at offset off to dst, element
// by element in index order.
func (v *View) AxpyF32(off int, a float32, dst []float32) {
	b := v.row(0, off, len(dst))
	for i := 0; i < len(dst) && len(b) >= 4; i++ { // as in DotF32
		dst[i] += a * f32frombits(binary.LittleEndian.Uint32(b))
		b = b[4:]
	}
}

// AxpyRowsF32 calls AxpyF32(off+r*stride, a[r], dst) for r in order. It
// reads rowLanes rows per pass over dst and adds their terms to each dst[i]
// in row order, so every dst[i] sees the same chain of additions. The
// remainder rows go through AxpyF32.
func (v *View) AxpyRowsF32(off, stride int, a, dst []float32) {
	r := 0
	for ; r+rowLanes <= len(a); r += rowLanes {
		o := off + r*stride
		b0 := v.row(0, o, len(dst))
		b1 := v.row(1, o+stride, len(dst))
		b2 := v.row(2, o+2*stride, len(dst))
		b3 := v.row(3, o+3*stride, len(dst))
		a0, a1, a2, a3 := a[r], a[r+1], a[r+2], a[r+3]
		for i, d := range dst {
			j := 4 * i // as in DotRowsF32
			d += a0 * f32frombits(binary.LittleEndian.Uint32(b0[j:j+4:j+4]))
			d += a1 * f32frombits(binary.LittleEndian.Uint32(b1[j:j+4:j+4]))
			d += a2 * f32frombits(binary.LittleEndian.Uint32(b2[j:j+4:j+4]))
			d += a3 * f32frombits(binary.LittleEndian.Uint32(b3[j:j+4:j+4]))
			dst[i] = d
		}
	}
	for ; r < len(a); r++ {
		v.AxpyF32(off+r*stride, a[r], dst)
	}
}

// row returns the bytes of the n float32s at offset off. A row inside one
// page is returned in place; one that straddles pages is copied through
// CopyOut into the scratch buffer of the given lane, valid until that
// lane's next call.
func (v *View) row(lane, off, n int) []byte {
	a := int(v.Base&0xFFF) + off
	p, o := a/mem.PageSize, a%mem.PageSize
	if o+4*n <= mem.PageSize {
		return v.page(p)[o : o+4*n]
	}
	if cap(v.scratch[lane]) < 4*n {
		v.scratch[lane] = make([]byte, 4*n)
	}
	b := v.scratch[lane][:4*n]
	v.CopyOut(off, b)
	return b
}

// CopyOut copies n bytes at offset off into dst.
func (v *View) CopyOut(off int, dst []byte) {
	a := int(v.Base&0xFFF) + off
	di := 0
	for di < len(dst) {
		p, o := a/mem.PageSize, a%mem.PageSize
		n := copy(dst[di:], v.page(p)[o:])
		a += n
		di += n
	}
}

// CopyIn writes src at offset off (confined/writable views only).
func (v *View) CopyIn(off int, src []byte) {
	v.E.WriteMem(v.Base+paging.Addr(off), src)
	// Refresh cached slices lazily; WriteMem faulted pages in already.
}

func f32frombits(u uint32) float32 {
	return float32frombits(u)
}
