package llm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/harness"
)

func TestModelLayout(t *testing.T) {
	m := Model{Layers: 4, MaxSeq: 80}
	if m.tokEmb() != 0 {
		t.Fatal("token embedding not at 0")
	}
	if m.posEmb() != Vocab*Dim {
		t.Fatal("position embedding offset wrong")
	}
	// Layers are contiguous and non-overlapping.
	for l := 0; l < m.Layers-1; l++ {
		if m.layerBase(l+1)-m.layerBase(l) != m.layerSize() {
			t.Fatalf("layer %d stride broken", l)
		}
	}
	if m.finalNorm() != m.layerBase(m.Layers) {
		t.Fatal("final norm offset wrong")
	}
	if m.NumFloats() != m.finalNorm()+Dim {
		t.Fatal("total size wrong")
	}
	// Per-layer field offsets cover the layer exactly.
	if offW2+Hidden*Dim != m.layerSize() {
		t.Fatalf("layer field offsets (%d) != layer size (%d)", offW2+Hidden*Dim, m.layerSize())
	}
}

func TestBuildModelDeterministic(t *testing.T) {
	m := Model{Layers: 2, MaxSeq: 16}
	a := BuildModel(m, 42)
	b := BuildModel(m, 42)
	if !bytes.Equal(a, b) {
		t.Fatal("model build not deterministic")
	}
	c := BuildModel(m, 43)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical models")
	}
	if len(a) != 4*m.NumFloats() {
		t.Fatalf("model bytes %d != 4*%d", len(a), m.NumFloats())
	}
}

func TestNumericPrimitives(t *testing.T) {
	x := []float32{1, 2, 3, 4}
	w := []float32{1, 1, 1, 1}
	dst := make([]float32, 4)
	rmsnorm(dst, x, w)
	// RMS of (1,2,3,4) = sqrt(30/4); dst[i] = x[i]/rms.
	if dst[0] < 0.3 || dst[0] > 0.45 {
		t.Fatalf("rmsnorm dst[0] = %f", dst[0])
	}

	s := []float32{1, 2, 3}
	softmax(s)
	var sum float32
	for _, v := range s {
		if v <= 0 || v >= 1 {
			t.Fatalf("softmax out of (0,1): %v", s)
		}
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("softmax sum %f", sum)
	}
	if !(s[2] > s[1] && s[1] > s[0]) {
		t.Fatal("softmax not monotone")
	}

	if argmax([]float32{0.1, 0.9, 0.3}) != 1 {
		t.Fatal("argmax wrong")
	}
	if v := silu(0); v != 0 {
		t.Fatalf("silu(0) = %f", v)
	}
	if v := silu(10); v < 9.9 {
		t.Fatalf("silu(10) = %f", v)
	}
}

func TestWorkloadShape(t *testing.T) {
	w := New(1)
	if w.Name() != "llama.cpp" {
		t.Fatal("name")
	}
	if w.CommonData() == nil || len(w.Input()) == 0 {
		t.Fatal("missing data")
	}
	if w.HeapPages() == 0 || w.Threads() != 8 {
		t.Fatal("sizing")
	}
	// Scale grows the workload.
	w4 := New(4)
	if w4.GenTokens <= w.GenTokens || len(w4.CommonData()) <= len(w.CommonData()) {
		t.Fatal("scale has no effect")
	}
}

// refForward is the transformer of state.forward over plain Go slices: the
// weights decoded once, the K/V cache a []float32. It shares only the weight
// layout and the pure numeric primitives with the workload, and keeps its
// summation order, so the two must agree byte for byte.
type refForward struct {
	m      Model
	w      []float32
	kCache []float32 // [layer][pos][Dim]
	vCache []float32
	seqLen int
}

func newRefForward(wl *Workload) *refForward {
	data := wl.CommonData()
	w := make([]float32, len(data)/4)
	for i := range w {
		w[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
	}
	m := wl.Model
	return &refForward{
		m:      m,
		w:      w,
		kCache: make([]float32, m.Layers*m.MaxSeq*Dim),
		vCache: make([]float32, m.Layers*m.MaxSeq*Dim),
	}
}

// matvec computes out = W x for the len(out) x len(x) weight at float
// offset off.
func (r *refForward) matvec(out []float32, off int, x []float32) {
	for row := range out {
		wr := r.w[off+row*len(x) : off+(row+1)*len(x)]
		var dot float32
		for i := range x {
			dot += wr[i] * x[i]
		}
		out[row] = dot
	}
}

func (r *refForward) forward(tok int, logits []float32) {
	m := r.m
	pos := r.seqLen
	x := make([]float32, Dim)
	xb := make([]float32, Dim)
	q := make([]float32, Dim)
	att := make([]float32, pos+1)
	ffn := make([]float32, Hidden)
	for i := range x {
		x[i] = r.w[m.tokEmb()+tok*Dim+i] + r.w[m.posEmb()+pos*Dim+i]
	}
	for l := 0; l < m.Layers; l++ {
		base := m.layerBase(l)
		rmsnorm(xb, x, r.w[base+offAttnNorm:base+offAttnNorm+Dim])
		cache := (l*m.MaxSeq + pos) * Dim
		r.matvec(q, base+offWQ, xb)
		r.matvec(r.kCache[cache:cache+Dim], base+offWK, xb)
		r.matvec(r.vCache[cache:cache+Dim], base+offWV, xb)
		for h := 0; h < Heads; h++ {
			qh := q[h*HeadDim : (h+1)*HeadDim]
			for t := 0; t <= pos; t++ {
				k := r.kCache[(l*m.MaxSeq+t)*Dim+h*HeadDim:]
				var dot float32
				for i := range qh {
					dot += qh[i] * k[i]
				}
				att[t] = dot / float32(math.Sqrt(HeadDim))
			}
			softmax(att)
			for i := range qh {
				qh[i] = 0
			}
			for t := 0; t <= pos; t++ {
				v := r.vCache[(l*m.MaxSeq+t)*Dim+h*HeadDim:]
				for i := range qh {
					qh[i] += att[t] * v[i]
				}
			}
		}
		r.matvec(xb, base+offWO, q)
		for i := range x {
			x[i] += xb[i]
		}
		rmsnorm(xb, x, r.w[base+offFFNNorm:base+offFFNNorm+Dim])
		r.matvec(ffn, base+offW1, xb)
		for i := range ffn {
			ffn[i] = silu(ffn[i])
		}
		r.matvec(xb, base+offW2, ffn)
		for i := range x {
			x[i] += xb[i]
		}
	}
	rmsnorm(xb, x, r.w[m.finalNorm():m.finalNorm()+Dim])
	r.matvec(logits, m.tokEmb(), xb)
	r.seqLen++
}

// referenceOutput runs prompt ingestion and greedy generation exactly as
// Workload.Run does and formats the same response.
func referenceOutput(wl *Workload) string {
	r := newRefForward(wl)
	prompt := []byte(wl.Prompt)
	if len(prompt) > wl.Model.MaxSeq/2 {
		prompt = prompt[:wl.Model.MaxSeq/2]
	}
	logits := make([]float32, Vocab)
	for _, tok := range prompt {
		r.forward(int(tok), logits)
	}
	last := 0
	if len(prompt) > 0 {
		last = argmax(logits)
	}
	var out []byte
	for i := 0; i < wl.GenTokens && r.seqLen < wl.Model.MaxSeq; i++ {
		r.forward(last, logits)
		last = argmax(logits)
		out = append(out, byte(last))
	}
	return fmt.Sprintf("tokens=%d output=%q", len(out), out)
}

// TestForwardMatchesReference pins the workload's output bytes to a plain
// in-memory transformer: every weight row, the K/V cache and the attention
// over it must flow through simulated memory unchanged, natively and inside
// an Erebor sandbox.
func TestForwardMatchesReference(t *testing.T) {
	for _, c := range []struct {
		prompt string
		cfg    harness.ScenarioConfig
	}{
		{"", harness.CfgNative},
		{"the quick brown fox", harness.CfgNative},
		{"", harness.CfgErebor},
	} {
		wl := New(1)
		if c.prompt != "" {
			wl.Prompt = c.prompt
		}
		res, err := harness.RunScenario(wl, c.cfg, harness.DefaultScenarioOptions())
		if err != nil {
			t.Fatalf("%s %q: %v", c.cfg, wl.Prompt, err)
		}
		if want := referenceOutput(wl); res.Output != want {
			t.Errorf("%s %q:\n got %s\nwant %s", c.cfg, wl.Prompt, res.Output, want)
		}
	}
}

// BenchmarkLLMRun measures one scale-1 inference natively, world boot
// included: the host cost of the transformer over simulated memory.
func BenchmarkLLMRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunScenario(New(1), harness.CfgNative, harness.DefaultScenarioOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
