// Package llm reproduces the paper's llama.cpp scenario: GPT-style
// transformer inference over a byte-level vocabulary. The weights live in
// an Erebor **common** region (the shared model), the KV cache and
// activations in **confined** memory — the same split that drives the
// paper's memory-sharing results (Table 5/6).
//
// The network is a genuine decoder-only transformer (embeddings, RMSNorm,
// multi-head attention with a KV cache, SiLU FFN, greedy decoding),
// scaled down from 7B parameters to a few MB; the substitution is recorded
// in DESIGN.md.
package llm

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/asterisc-release/erebor-go/internal/workloads"
)

// Arch fixes the scaled architecture.
const (
	Dim     = 128
	Heads   = 4
	HeadDim = Dim / Heads
	Hidden  = 384
	Vocab   = 256
)

// Model describes one built model.
type Model struct {
	Layers int
	MaxSeq int
}

// Weight-layout offsets (in float32 units).
func (m Model) tokEmb() int { return 0 }
func (m Model) posEmb() int { return Vocab * Dim }
func (m Model) layerBase(l int) int {
	return m.posEmb() + m.MaxSeq*Dim + l*m.layerSize()
}
func (m Model) layerSize() int {
	return Dim + 4*Dim*Dim + Dim + Dim*Hidden + Hidden*Dim
}
func (m Model) finalNorm() int { return m.layerBase(m.Layers) }

// NumFloats is the total parameter count.
func (m Model) NumFloats() int { return m.finalNorm() + Dim }

// Per-layer field offsets relative to layerBase.
const (
	offAttnNorm = 0
	offWQ       = Dim
	offWK       = offWQ + Dim*Dim
	offWV       = offWK + Dim*Dim
	offWO       = offWV + Dim*Dim
	offFFNNorm  = offWO + Dim*Dim
	offW1       = offFFNNorm + Dim
	offW2       = offW1 + Dim*Hidden
)

// BuildModel deterministically generates model weights.
func BuildModel(m Model, seed uint64) []byte {
	r := workloads.NewRng(seed)
	n := m.NumFloats()
	vals := make([]float32, n)
	std := float32(1.0 / math.Sqrt(Dim))
	for i := range vals {
		vals[i] = r.Normal(std)
	}
	// Norm weights init to 1.
	for l := 0; l < m.Layers; l++ {
		b := m.layerBase(l)
		for i := 0; i < Dim; i++ {
			vals[b+offAttnNorm+i] = 1
			vals[b+offFFNNorm+i] = 1
		}
	}
	for i := 0; i < Dim; i++ {
		vals[m.finalNorm()+i] = 1
	}
	return workloads.F32Bytes(vals)
}

// Workload is the llama.cpp scenario.
type Workload struct {
	Model     Model
	Seed      uint64
	GenTokens int
	Prompt    string
	NThreads  int

	common []byte
}

// New builds the scenario at the given scale (1 = unit-test size).
func New(scale int) *Workload {
	if scale < 1 {
		scale = 1
	}
	w := &Workload{
		Model:     Model{Layers: 4, MaxSeq: 80 * scale},
		Seed:      42,
		GenTokens: 40 * scale,
		Prompt:    "Translate to French: the hospital records are private.",
		NThreads:  8,
	}
	w.common = BuildModel(w.Model, w.Seed)
	return w
}

// Name implements workloads.Workload.
func (w *Workload) Name() string { return "llama.cpp" }

// CommonData returns the serialized model.
func (w *Workload) CommonData() []byte { return w.common }

// Input is the client prompt.
func (w *Workload) Input() []byte { return []byte(w.Prompt) }

// HeapPages sizes the confined heap: KV cache + activations + I/O.
func (w *Workload) HeapPages() uint64 {
	kv := w.Model.Layers * w.Model.MaxSeq * 2 * Dim * 4
	return uint64(kv/4096) + 64
}

// Threads implements workloads.Workload.
func (w *Workload) Threads() int { return w.NThreads }

// kvStride is the byte distance between positions in a layer's K/V cache:
// one K row and one V row of Dim floats each.
const kvStride = 2 * Dim * 4

// state is the per-inference runtime.
type state struct {
	w      *Workload
	ctx    *workloads.Ctx
	model  *workloads.View
	kv     *workloads.View // confined: [layer][pos][k|v][dim]
	seqLen int

	// Go-side activation scratch (the real llama.cpp keeps activations in
	// registers/stack; costs are charged through Charge).
	x, xb, q, k, v, att, ffn1 []float32
	row                       []float32
	kvRow                     []byte // one K or V row, encoded for the cache
}

// Run implements workloads.Workload: prompt ingestion + greedy generation.
func (w *Workload) Run(ctx *workloads.Ctx) []byte {
	m := w.Model
	kvBytes := m.Layers * m.MaxSeq * 2 * Dim * 4
	kvVA := ctx.Alloc(kvBytes)
	s := &state{
		w: w, ctx: ctx,
		model: workloads.NewView(ctx.E, ctx.CommonVA, len(w.common)),
		kv:    workloads.NewView(ctx.E, kvVA, kvBytes),
		x:     make([]float32, Dim),
		xb:    make([]float32, Dim),
		q:     make([]float32, Dim),
		k:     make([]float32, Dim),
		v:     make([]float32, Dim),
		att:   make([]float32, m.MaxSeq),
		ffn1:  make([]float32, Hidden),
		row:   make([]float32, Dim),
		kvRow: make([]byte, Dim*4),
	}
	s.kv.Touch() // confined memory is pre-mapped; build the window cache

	prompt := ctx.Input
	if len(prompt) > m.MaxSeq/2 {
		prompt = prompt[:m.MaxSeq/2]
	}
	var out []byte
	var logits [Vocab]float32

	// Ingest the prompt.
	for _, tok := range prompt {
		s.forward(int(tok), &logits)
	}
	// Greedy generation.
	last := 0
	if len(prompt) > 0 {
		last = argmax(logits[:])
	}
	for i := 0; i < w.GenTokens && s.seqLen < m.MaxSeq; i++ {
		s.forward(last, &logits)
		last = argmax(logits[:])
		out = append(out, byte(last))
	}
	return []byte(fmt.Sprintf("tokens=%d output=%q", len(out), out))
}

// forward runs one token through the network at position s.seqLen.
func (s *state) forward(tok int, logits *[Vocab]float32) {
	m := s.w.Model
	e := s.ctx.E
	s.model.Touch() // one full-model pass per token; evictions re-fault here
	s.ctx.WorkTick()

	pos := s.seqLen
	if pos >= m.MaxSeq {
		return
	}
	// Embedding + position.
	s.model.F32Row((m.tokEmb()+tok*Dim)*4, s.x)
	s.model.F32Row((m.posEmb()+pos*Dim)*4, s.row)
	for i := 0; i < Dim; i++ {
		s.x[i] += s.row[i]
	}

	flops := 0
	for l := 0; l < m.Layers; l++ {
		base := m.layerBase(l)

		// Attention block: RMSNorm -> QKV -> attention -> WO -> residual.
		s.model.F32Row((base+offAttnNorm)*4, s.row)
		rmsnorm(s.xb, s.x, s.row)

		kvOff := (l*m.MaxSeq + pos) * kvStride
		s.matvec(s.q, base+offWQ, s.xb)
		s.matvec(s.k, base+offWK, s.xb)
		s.storeKV(kvOff, s.k)
		s.matvec(s.v, base+offWV, s.xb)
		s.storeKV(kvOff+Dim*4, s.v)
		flops += 3 * 2 * Dim * Dim

		// Multi-head attention over the cache: head h's K row at position
		// t sits at koff + t*kvStride, its V row Dim floats further on.
		for h := 0; h < Heads; h++ {
			qh := s.q[h*HeadDim : (h+1)*HeadDim]
			att := s.att[:pos+1]
			koff := l*m.MaxSeq*kvStride + h*HeadDim*4
			s.kv.DotRowsF32(koff, kvStride, qh, att)
			for t := range att {
				att[t] /= float32(math.Sqrt(HeadDim))
			}
			softmax(att)
			for i := range qh {
				qh[i] = 0
			}
			s.kv.AxpyRowsF32(koff+Dim*4, kvStride, att, qh)
			flops += 4 * (pos + 1) * HeadDim
		}
		s.matvec(s.xb, base+offWO, s.q)
		for i := 0; i < Dim; i++ {
			s.x[i] += s.xb[i]
		}
		flops += 2 * Dim * Dim

		// FFN block: RMSNorm -> W1 -> SiLU -> W2 -> residual.
		s.model.F32Row((base+offFFNNorm)*4, s.row)
		rmsnorm(s.xb, s.x, s.row)
		s.matvec(s.ffn1, base+offW1, s.xb)
		for i := range s.ffn1 {
			s.ffn1[i] = silu(s.ffn1[i])
		}
		s.matvec(s.xb, base+offW2, s.ffn1)
		for i := 0; i < Dim; i++ {
			s.x[i] += s.xb[i]
		}
		flops += 2*Dim*Hidden + 2*Hidden*Dim
		s.ctx.SyncPoint() // worker barrier at the end of each layer
	}

	// Final norm + tied-embedding logits.
	s.model.F32Row(m.finalNorm()*4, s.row)
	rmsnorm(s.xb, s.x, s.row)
	s.matvec(logits[:], m.tokEmb(), s.xb)
	flops += 2 * Vocab * Dim

	// Charge the arithmetic: ~8 flops/cycle (vectorized CPU inference).
	e.Charge(uint64(flops / 8))
	s.seqLen++
}

// storeKV writes one K or V row into the confined cache at byte offset off.
func (s *state) storeKV(off int, vals []float32) {
	for i, f := range vals {
		binary.LittleEndian.PutUint32(s.kvRow[i*4:], math.Float32bits(f))
	}
	s.kv.CopyIn(off, s.kvRow)
}

// matvec computes out = W x for the len(out) x len(x) weight at float
// offset wOff.
func (s *state) matvec(out []float32, wOff int, x []float32) {
	s.model.DotRowsF32(wOff*4, len(x)*4, x, out)
}

func rmsnorm(dst, x, weight []float32) {
	var ss float32
	for _, v := range x {
		ss += v * v
	}
	inv := 1 / float32(math.Sqrt(float64(ss/float32(len(x))+1e-5)))
	for i := range x {
		dst[i] = x[i] * inv * weight[i]
	}
}

func softmax(x []float32) {
	max := x[0]
	for _, v := range x {
		if v > max {
			max = v
		}
	}
	var sum float32
	for i := range x {
		x[i] = float32(math.Exp(float64(x[i] - max)))
		sum += x[i]
	}
	for i := range x {
		x[i] /= sum
	}
}

func silu(v float32) float32 {
	return v / (1 + float32(math.Exp(float64(-v))))
}

func argmax(x []float32) int {
	best, bi := x[0], 0
	for i, v := range x {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}
