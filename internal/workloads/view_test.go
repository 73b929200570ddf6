package workloads

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/paging"
)

// filledView returns a view over n pages of pre-filled bytes, which never
// probes a page through kernel.Env, and the same bytes as one flat slice.
// Every byte lies in [0x30,0x50) or [0xB0,0xD0), so a float32 decoded at
// any alignment is finite, normal and of either sign.
func filledView(n int) (*View, []byte) {
	r := NewRng(5)
	flat := make([]byte, n*mem.PageSize)
	for i := range flat {
		flat[i] = byte(0x30+r.Intn(0x20)) | byte(r.Intn(2))<<7
	}
	v := NewView(nil, paging.Addr(0x40000), len(flat))
	for i := range v.pages {
		v.pages[i] = flat[i*mem.PageSize : (i+1)*mem.PageSize]
	}
	return v, flat
}

// TestViewRowKernelsExact checks DotF32 and AxpyF32 against F32Row plus an
// index-order loop, bit for bit, for rows inside one page, rows crossing a
// page boundary between floats, and rows with one float split across two
// pages; then DotRowsF32 and AxpyRowsF32 against one DotF32 or AxpyF32
// call per row, bit for bit, for every row count from 1 to 9 (full batches
// and tails) over dense, page-straddling and strided (attention-shaped)
// rows, including rows that all straddle at once, so each lane needs its
// own scratch row. It also checks that no kernel allocates once the view's
// scratch rows are sized.
func TestViewRowKernelsExact(t *testing.T) {
	v, flat := filledView(4)
	r := NewRng(9)
	for _, off := range []int{0, 0xFF0, 0xFFE} {
		for _, n := range []int{1, 32, 128, 384, 1100} {
			x := make([]float32, n)
			for i := range x {
				x[i] = r.Normal(1)
			}
			a := r.Normal(1)

			row := make([]float32, n)
			v.F32Row(off, row)
			var wantDot float32
			wantAxpy := append([]float32(nil), x...)
			for i := range row {
				if want := math.Float32frombits(binary.LittleEndian.Uint32(flat[off+4*i:])); math.Float32bits(row[i]) != math.Float32bits(want) {
					t.Fatalf("off %#x n %d: F32Row[%d] = %v, want %v", off, n, i, row[i], want)
				}
				wantDot += row[i] * x[i]
				wantAxpy[i] += a * row[i]
			}

			if got := v.DotF32(off, x); math.Float32bits(got) != math.Float32bits(wantDot) {
				t.Errorf("off %#x n %d: DotF32 = %v, want %v", off, n, got, wantDot)
			}
			got := append([]float32(nil), x...)
			v.AxpyF32(off, a, got)
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(wantAxpy[i]) {
					t.Fatalf("off %#x n %d: AxpyF32[%d] = %v, want %v", off, n, i, got[i], wantAxpy[i])
				}
			}

			var sink float32
			if allocs := testing.AllocsPerRun(10, func() { sink += v.DotF32(off, x) }); allocs != 0 {
				t.Errorf("off %#x n %d: DotF32 allocates %v times per call", off, n, allocs)
			}
			if allocs := testing.AllocsPerRun(10, func() { v.AxpyF32(off, a, got) }); allocs != 0 {
				t.Errorf("off %#x n %d: AxpyF32 allocates %v times per call", off, n, allocs)
			}
		}
	}

	v, _ = filledView(11)
	for _, shape := range []struct{ n, stride int }{
		{128, 4 * 128},   // dense rows inside one page at offset 0
		{384, 1536},      // dense rows, some straddling a page
		{1100, 4 * 1100}, // rows longer than a page: every lane straddles
		{32, 1024},       // one head's K or V rows across positions
	} {
		n, stride := shape.n, shape.stride
		x := make([]float32, n)
		for i := range x {
			x[i] = r.Normal(1)
		}
		for _, off := range []int{0, 0xFF0, 0xFFE} {
			for rows := 1; rows <= 9; rows++ {
				name := fmt.Sprintf("n %d stride %d off %#x rows %d", n, stride, off, rows)
				a := make([]float32, rows)
				for i := range a {
					a[i] = r.Normal(1)
				}

				out := make([]float32, rows)
				v.DotRowsF32(off, stride, x, out)
				for row := range out {
					if want := v.DotF32(off+row*stride, x); math.Float32bits(out[row]) != math.Float32bits(want) {
						t.Errorf("%s: DotRowsF32[%d] = %v, want %v", name, row, out[row], want)
					}
				}

				want := append([]float32(nil), x...)
				for row := range a {
					v.AxpyF32(off+row*stride, a[row], want)
				}
				got := append([]float32(nil), x...)
				v.AxpyRowsF32(off, stride, a, got)
				for i := range got {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("%s: AxpyRowsF32[%d] = %v, want %v", name, i, got[i], want[i])
					}
				}

				if allocs := testing.AllocsPerRun(10, func() { v.DotRowsF32(off, stride, x, out) }); allocs != 0 {
					t.Errorf("%s: DotRowsF32 allocates %v times per call", name, allocs)
				}
				if allocs := testing.AllocsPerRun(10, func() { v.AxpyRowsF32(off, stride, a, got) }); allocs != 0 {
					t.Errorf("%s: AxpyRowsF32 allocates %v times per call", name, allocs)
				}
			}
		}
	}
}

var dotSink float32

// BenchmarkViewDotF32 measures one 128-float weight row's dot product read
// in place from one page, and copied out of a row straddling two pages.
func BenchmarkViewDotF32(b *testing.B) {
	v, _ := filledView(2)
	x := make([]float32, 128)
	for i := range x {
		x[i] = float32(i)
	}
	for _, off := range []int{0, 0xF00} {
		name := "page"
		if off != 0 {
			name = "straddle"
		}
		b.Run(fmt.Sprintf("%s/off=%#x", name, off), func(b *testing.B) {
			dotSink += v.DotF32(off, x) // sizes the scratch row
			b.SetBytes(int64(4 * len(x)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dotSink += v.DotF32(off, x)
			}
		})
	}
}

// BenchmarkViewDotRowsF32 measures a 128-row matvec through DotRowsF32:
// 128-float rows packed inside pages, and 384-float rows, a quarter of
// which straddle two pages.
func BenchmarkViewDotRowsF32(b *testing.B) {
	for _, n := range []int{128, 384} {
		v, _ := filledView(128 * n * 4 / mem.PageSize)
		x := make([]float32, n)
		for i := range x {
			x[i] = float32(i)
		}
		out := make([]float32, 128)
		b.Run(fmt.Sprintf("128x%d", n), func(b *testing.B) {
			v.DotRowsF32(0, 4*n, x, out) // sizes the scratch rows
			b.SetBytes(int64(4 * n * len(out)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.DotRowsF32(0, 4*n, x, out)
			}
			dotSink += out[0]
		})
	}
}
