// Package imgproc reproduces the paper's image-processing scenario (yolo):
// a convolutional detection pipeline over client images. The filter banks
// and detection head live in a **common** region (the shared model);
// client images and activations are **confined**.
//
// The pipeline is a genuine (scaled) CNN: two 3x3 convolution + ReLU +
// 2x2 max-pool stages, a dense scoring head, thresholding and greedy
// non-maximum suppression.
package imgproc

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/asterisc-release/erebor-go/internal/workloads"
)

// Geometry of the scaled pipeline.
const (
	ImgW, ImgH = 64, 64
	C1         = 16 // first conv filters
	C2         = 32 // second conv filters
	K          = 3  // kernel size
	Cells      = 8  // score grid is Cells x Cells
	HeadIn     = C2 * (ImgW / 4) * (ImgH / 4) / (Cells * Cells)

	// Dense classifier refining each image's detections (the bulk of the
	// model, like yolo's backbone weights).
	FCIn  = 256
	FCOut = 4096
)

// Model float-offsets.
func offConv1() int { return 0 }
func offConv2() int { return C1 * K * K }
func offHead() int  { return offConv2() + C2*C1*K*K }
func offFC() int    { return offHead() + Cells*Cells*HeadIn }

// NumFloats is the model parameter count.
func NumFloats() int { return offFC() + FCIn*FCOut }

// BuildModel generates the filter banks deterministically.
func BuildModel(seed uint64) []byte {
	r := workloads.NewRng(seed)
	vals := make([]float32, NumFloats())
	for i := range vals {
		vals[i] = r.Normal(0.2)
	}
	return workloads.F32Bytes(vals)
}

// BuildImages synthesizes n client images with bright blobs to detect.
func BuildImages(n int, seed uint64) []byte {
	r := workloads.NewRng(seed)
	out := make([]byte, 4+n*ImgW*ImgH)
	binary.LittleEndian.PutUint32(out, uint32(n))
	for img := 0; img < n; img++ {
		base := 4 + img*ImgW*ImgH
		// Background noise.
		for i := 0; i < ImgW*ImgH; i++ {
			out[base+i] = byte(r.Intn(48))
		}
		// 1-4 bright blobs.
		for b := 0; b < 1+r.Intn(4); b++ {
			cx, cy := 8+r.Intn(ImgW-16), 8+r.Intn(ImgH-16)
			rad := 2 + r.Intn(4)
			for dy := -rad; dy <= rad; dy++ {
				for dx := -rad; dx <= rad; dx++ {
					if dx*dx+dy*dy <= rad*rad {
						out[base+(cy+dy)*ImgW+cx+dx] = byte(200 + r.Intn(55))
					}
				}
			}
		}
	}
	return out
}

// Workload is the yolo scenario.
type Workload struct {
	NumImages int
	Seed      uint64
	common    []byte
	input     []byte
}

// New builds the scenario at the given scale.
func New(scale int) *Workload {
	if scale < 1 {
		scale = 1
	}
	w := &Workload{NumImages: 14 * scale, Seed: 7}
	w.common = BuildModel(w.Seed)
	w.input = BuildImages(w.NumImages, w.Seed+1)
	return w
}

// Name implements workloads.Workload.
func (w *Workload) Name() string { return "yolo" }

// CommonData returns the model bytes.
func (w *Workload) CommonData() []byte { return w.common }

// Input returns the client image batch.
func (w *Workload) Input() []byte { return w.input }

// HeapPages sizes the confined heap (images + activations).
func (w *Workload) HeapPages() uint64 {
	return uint64(len(w.input)/4096) + 256
}

// Threads implements workloads.Workload.
func (w *Workload) Threads() int { return 8 }

// Run processes the client images: conv -> pool -> conv -> pool -> score
// grid -> NMS; returns per-image detection counts.
func (w *Workload) Run(ctx *workloads.Ctx) []byte {
	e := ctx.E
	model := workloads.NewView(e, ctx.CommonVA, len(w.common))
	model.Touch()

	// The client batch is installed in confined memory; ctx.Input aliases
	// the received bytes.
	if len(ctx.Input) < 4 {
		return []byte("bad input")
	}
	n := int(binary.LittleEndian.Uint32(ctx.Input))
	if n*ImgW*ImgH+4 > len(ctx.Input) {
		return []byte("truncated batch")
	}

	// Load filters once per batch into scratch (then re-touched per image).
	conv1 := make([]float32, C1*K*K)
	conv2 := make([]float32, C2*C1*K*K)
	head := make([]float32, Cells*Cells*HeadIn)
	model.F32Row(offConv1()*4, conv1)
	model.F32Row(offConv2()*4, conv2)
	model.F32Row(offHead()*4, head)

	img := make([]float32, ImgW*ImgH)
	a1 := make([]float32, C1*ImgW*ImgH)
	p1 := make([]float32, C1*(ImgW/2)*(ImgH/2))
	a2 := make([]float32, C2*(ImgW/2)*(ImgH/2))
	p2 := make([]float32, C2*(ImgW/4)*(ImgH/4))

	total := 0
	var report []byte
	for im := 0; im < n; im++ {
		model.Touch() // evicted model pages re-fault per image
		ctx.WorkTick()
		ctx.SyncPoint() // work-queue handoff between images
		base := 4 + im*ImgW*ImgH
		for i := 0; i < ImgW*ImgH; i++ {
			img[i] = float32(ctx.Input[base+i]) / 255
		}
		flops := 0
		// Conv1 (same padding) + ReLU.
		for f := 0; f < C1; f++ {
			kr := conv1[f*K*K : (f+1)*K*K]
			convolve(img, ImgW, ImgH, kr, a1[f*ImgW*ImgH:])
		}
		flops += C1 * ImgW * ImgH * K * K * 2
		relu(a1)
		// Pool1.
		for f := 0; f < C1; f++ {
			maxpool(a1[f*ImgW*ImgH:], ImgW, ImgH, p1[f*(ImgW/2)*(ImgH/2):])
		}
		// Conv2 over C1 channels + ReLU.
		w2, h2 := ImgW/2, ImgH/2
		for f := 0; f < C2; f++ {
			dst := a2[f*w2*h2 : (f+1)*w2*h2]
			for i := range dst {
				dst[i] = 0
			}
			for cch := 0; cch < C1; cch++ {
				kr := conv2[(f*C1+cch)*K*K : (f*C1+cch+1)*K*K]
				convolveAcc(p1[cch*w2*h2:], w2, h2, kr, dst)
			}
		}
		flops += C2 * C1 * w2 * h2 * K * K * 2
		relu(a2)
		// Pool2.
		for f := 0; f < C2; f++ {
			maxpool(a2[f*w2*h2:], w2, h2, p2[f*(w2/2)*(h2/2):])
		}
		// Score grid + greedy NMS.
		dets := scoreAndNMS(p2, head)
		total += dets
		flops += Cells * Cells * HeadIn * 2
		// Classifier refinement over pooled features (streams the dense
		// block from the shared model).
		cls := classify(model, p2)
		_ = cls
		flops += 2 * FCIn * FCOut
		e.Charge(uint64(flops / 8))
		report = append(report, byte('0'+dets%10))
	}
	return []byte(fmt.Sprintf("images=%d detections=%d grid=%s", n, total, report))
}

func convolve(src []float32, w, h int, k []float32, dst []float32) {
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var s float32
			for ky := 0; ky < K; ky++ {
				for kx := 0; kx < K; kx++ {
					sy, sx := y+ky-1, x+kx-1
					if sy >= 0 && sy < h && sx >= 0 && sx < w {
						s += src[sy*w+sx] * k[ky*K+kx]
					}
				}
			}
			dst[y*w+x] = s
		}
	}
}

func convolveAcc(src []float32, w, h int, k []float32, dst []float32) {
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var s float32
			for ky := 0; ky < K; ky++ {
				for kx := 0; kx < K; kx++ {
					sy, sx := y+ky-1, x+kx-1
					if sy >= 0 && sy < h && sx >= 0 && sx < w {
						s += src[sy*w+sx] * k[ky*K+kx]
					}
				}
			}
			dst[y*w+x] += s
		}
	}
}

func relu(x []float32) {
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		}
	}
}

func maxpool(src []float32, w, h int, dst []float32) {
	for y := 0; y < h/2; y++ {
		for x := 0; x < w/2; x++ {
			m := src[(2*y)*w+2*x]
			if v := src[(2*y)*w+2*x+1]; v > m {
				m = v
			}
			if v := src[(2*y+1)*w+2*x]; v > m {
				m = v
			}
			if v := src[(2*y+1)*w+2*x+1]; v > m {
				m = v
			}
			dst[y*(w/2)+x] = m
		}
	}
}

// scoreAndNMS scores each grid cell with the head weights and suppresses
// neighbors of local maxima.
func scoreAndNMS(feat, head []float32) int {
	w4 := ImgW / 4
	cellW := w4 / Cells
	var scores [Cells * Cells]float32
	for cy := 0; cy < Cells; cy++ {
		for cx := 0; cx < Cells; cx++ {
			cell := cy*Cells + cx
			hw := head[cell*HeadIn : (cell+1)*HeadIn]
			var s float32
			i := 0
			for f := 0; f < C2 && i < HeadIn; f++ {
				for py := 0; py < cellW && i < HeadIn; py++ {
					for px := 0; px < cellW && i < HeadIn; px++ {
						s += feat[f*w4*w4+(cy*cellW+py)*w4+cx*cellW+px] * hw[i]
						i++
					}
				}
			}
			scores[cell] = sigmoid(s)
		}
	}
	// Greedy NMS on the grid.
	dets := 0
	suppressed := [Cells * Cells]bool{}
	for {
		best, bi := float32(0.55), -1
		for i, s := range scores {
			if !suppressed[i] && s > best {
				best, bi = s, i
			}
		}
		if bi < 0 {
			break
		}
		dets++
		cy, cx := bi/Cells, bi%Cells
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				ny, nx := cy+dy, cx+dx
				if ny >= 0 && ny < Cells && nx >= 0 && nx < Cells {
					suppressed[ny*Cells+nx] = true
				}
			}
		}
	}
	return dets
}

// classify runs the dense refinement block: features -> FCOut logits
// (streamed row by row from the shared model).
func classify(model *workloads.View, feat []float32) int {
	var in [FCIn]float32
	for i := 0; i < FCIn && i < len(feat); i++ {
		in[i] = feat[i*len(feat)/FCIn]
	}
	var scores [FCOut]float32
	model.DotRowsF32(offFC()*4, FCIn*4, in[:], scores[:])
	best, bi := float32(-1e30), 0
	for o, s := range scores {
		if s > best {
			best, bi = s, o
		}
	}
	return bi
}

func sigmoid(v float32) float32 {
	return 1 / (1 + float32(math.Exp(float64(-v))))
}
