package slo

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/metrics"
)

// fakeSrc is a canned HistSource: histograms keyed by family plus the
// phase label ("" for ttfc).
type fakeSrc map[string]metrics.Histogram

func (f fakeSrc) Hist(name string, labels ...metrics.Label) metrics.Histogram {
	key := name
	for _, l := range labels {
		key += "|" + l.Key + "=" + l.Value
	}
	return f[key]
}

func computeKey() string { return metrics.FamilyPhaseLatency + "|phase=compute" }

// TestParseObjectives covers the spec grammar: explicit budget, default
// budget, whitespace, and the rejection cases.
func TestParseObjectives(t *testing.T) {
	objs, err := ParseObjectives(" ttfc:p99<=2000000@0.05; compute:p99.9<=8000000 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 {
		t.Fatalf("got %d objectives, want 2", len(objs))
	}
	if objs[0].Phase != PhaseTTFC || objs[0].Quantile != 0.99 ||
		objs[0].Target != 2_000_000 || objs[0].Budget != 0.05 {
		t.Errorf("objective 0 = %+v", objs[0])
	}
	if objs[1].Budget != 0.01 {
		t.Errorf("default budget = %v, want 0.01", objs[1].Budget)
	}
	if q := objs[1].Quantile; q < 0.999-1e-9 || q > 0.999+1e-9 {
		t.Errorf("p99.9 parsed to %v", q)
	}
	if got := objs[1].displayName(); got != "compute-p99.9" {
		t.Errorf("displayName = %q", got)
	}
	for _, bad := range []string{
		"", "nocolon", ":p99<=5", "x:q99<=5", "x:p99<5", "x:p0<=5",
		"x:p99<=abc", "x:p99<=5@1.5", "x:p99<=5@-1",
	} {
		if _, err := ParseObjectives(bad); err == nil {
			t.Errorf("spec %q parsed without error", bad)
		}
	}
}

// TestEvaluateBudgetAndBurn: violations charge against the budget
// cumulatively; burn is the per-window delta; the verdict and the budget
// can never disagree because both read the same bucket-granular counts.
func TestEvaluateBudgetAndBurn(t *testing.T) {
	var h metrics.Histogram
	for i := 0; i < 98; i++ {
		h.ObserveEx(1000, uint64(200+i))
	}
	// Two tail observations: with 100 total, the p99 rank (99) lands in the
	// tail bucket, whose retained exemplar is the last write.
	h.ObserveEx(1<<20, 41)
	h.ObserveEx(1<<20, 42)
	src := fakeSrc{computeKey(): h}

	eng := NewEngine([]Objective{
		{Phase: "compute", Quantile: 0.99, Target: 2048, Budget: 0.05},
	}, 1000)
	eng.Evaluate(src, 1000)

	res := eng.Latest()
	if len(res) != 1 {
		t.Fatalf("got %d results, want 1", len(res))
	}
	r := res[0]
	if r.Violations != 2 || r.Burn != 2 {
		t.Errorf("violations/burn = %d/%d, want 2/2", r.Violations, r.Burn)
	}
	// 2 violations against an allowance of 0.05*100 = 5 → 40% used, intact.
	if r.BudgetUsed != 0.4 || r.Exhausted {
		t.Errorf("budget used %v exhausted %v, want 0.4/false", r.BudgetUsed, r.Exhausted)
	}
	if r.Exemplar != 42 {
		t.Errorf("exemplar = %d, want 42 (last write in tail bucket)", r.Exemplar)
	}
	if r.Met {
		t.Error("p99 in the tail bucket reported Met")
	}

	// Second window: eight more tail observations push past the allowance.
	for i := 0; i < 8; i++ {
		h.ObserveEx(1<<20, uint64(300+i))
	}
	src[computeKey()] = h
	eng.Evaluate(src, 2000)
	r = eng.Latest()[0]
	if r.Violations != 10 || r.Burn != 8 {
		t.Errorf("violations/burn = %d/%d, want 10/8", r.Violations, r.Burn)
	}
	if !r.Exhausted || !eng.Exhausted() {
		t.Error("10 violations over a 5.4 allowance did not exhaust")
	}
	if eng.Latest()[0].Window != 2000 {
		t.Errorf("latest window = %d, want 2000", eng.Latest()[0].Window)
	}
	// Exhaustion latches even if later windows are clean.
	eng.Evaluate(src, 3000)
	if !eng.Exhausted() {
		t.Error("exhaustion did not latch")
	}
}

// TestZeroBudgetAnyViolationExhausts: budget 0 means zero tolerance.
func TestZeroBudgetAnyViolationExhausts(t *testing.T) {
	var h metrics.Histogram
	h.Observe(100)
	h.Observe(1 << 16)
	eng := NewEngine([]Objective{
		{Phase: "compute", Quantile: 0.99, Target: 1000, Budget: 0},
	}, 0)
	if eng.Window() != DefaultWindow {
		t.Errorf("window 0 did not default")
	}
	eng.Evaluate(fakeSrc{computeKey(): h}, DefaultWindow)
	r := eng.Latest()[0]
	if !r.Exhausted || r.BudgetUsed != 1 {
		t.Errorf("zero budget: exhausted=%v used=%v, want true/1", r.Exhausted, r.BudgetUsed)
	}
}

// TestCleanObjectiveStaysGreen: no violations, no burn, Met verdict.
func TestCleanObjectiveStaysGreen(t *testing.T) {
	var h metrics.Histogram
	for i := 0; i < 50; i++ {
		h.ObserveEx(900, uint64(1+i))
	}
	eng := NewEngine([]Objective{
		{Phase: PhaseTTFC, Quantile: 0.99, Target: 2000, Budget: 0.01},
	}, 500)
	eng.Evaluate(fakeSrc{metrics.FamilyTTFC: h}, 500)
	r := eng.Latest()[0]
	if !r.Met || r.Violations != 0 || r.BudgetUsed != 0 || r.Exhausted {
		t.Errorf("clean objective reported %+v", r)
	}
	if r.Name != "ttfc-p99" {
		t.Errorf("default name = %q", r.Name)
	}
}

// TestExportJSONLDeterministic: two identically-driven engines export
// byte-identical JSONL, and every line is valid JSON with fixed fields.
func TestExportJSONLDeterministic(t *testing.T) {
	drive := func() *Engine {
		var h metrics.Histogram
		eng := NewEngine([]Objective{
			{Phase: "compute", Quantile: 0.99, Target: 512, Budget: 0.1},
			{Phase: PhaseTTFC, Quantile: 0.5, Target: 4096, Budget: 0.01},
		}, 1000)
		for w := uint64(1); w <= 3; w++ {
			h.ObserveEx(300*w, w)
			h.ObserveEx(1500*w, 10+w)
			src := fakeSrc{computeKey(): h, metrics.FamilyTTFC: h}
			eng.Evaluate(src, w*1000)
		}
		eng.Final(fakeSrc{computeKey(): h, metrics.FamilyTTFC: h}, 3456)
		return eng
	}
	var a, b bytes.Buffer
	if err := drive().ExportJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := drive().ExportJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("exports diverged:\n%s---\n%s", a.String(), b.String())
	}
	lines := bytes.Split(bytes.TrimSpace(a.Bytes()), []byte("\n"))
	if len(lines) != 8 { // (3 windows + final) × 2 objectives
		t.Fatalf("got %d lines, want 8", len(lines))
	}
	var last map[string]interface{}
	for _, ln := range lines {
		if err := json.Unmarshal(ln, &last); err != nil {
			t.Fatalf("line %q: %v", ln, err)
		}
	}
	if last["final"] != true || last["window"] != float64(3456) {
		t.Errorf("final line = %v", last)
	}
	// Nil engine (SLO disabled) exports nothing and never errors.
	var nilEng *Engine
	if err := nilEng.ExportJSONL(&bytes.Buffer{}); err != nil {
		t.Error(err)
	}
}

// TestWriteTableStates: the status table names the three states.
func TestWriteTableStates(t *testing.T) {
	results := []Result{
		{Name: "a", Met: true},
		{Name: "b", Met: false},
		{Name: "c", Met: false, Exhausted: true},
	}
	var buf bytes.Buffer
	WriteTable(&buf, results)
	out := buf.String()
	for _, want := range []string{"ok", "over", "BLOWN"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("table missing state %q:\n%s", want, out)
		}
	}
	buf.Reset()
	WriteTable(&buf, nil)
	if !bytes.Contains(buf.Bytes(), []byte("no SLO evaluations")) {
		t.Error("empty table missing placeholder")
	}
}

// TestDefaultObjectives: the stock set is well-formed (every phase known,
// quantiles in range, nonzero targets).
func TestDefaultObjectives(t *testing.T) {
	for _, o := range Default() {
		if o.Target == 0 || o.Quantile <= 0 || o.Quantile > 1 || o.Budget <= 0 {
			t.Errorf("malformed default objective %+v", o)
		}
		if o.Phase != PhaseTTFC && o.Phase != "handshake" && o.Phase != "compute" {
			t.Errorf("default objective targets unknown phase %q", o.Phase)
		}
	}
}
