package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// TestBenchmarkJSONMatchesCode pins BENCHMARK.json to the workloads and
// metrics this program reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadList) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(doc.Workloads), len(workloadList))
	}
	for i, wl := range workloadList {
		if doc.Workloads[i].Name != wl.name || doc.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code %q: %q", i, doc.Workloads[i], wl.name, wl.why)
		}
	}
	same := func(what string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the code %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

// TestRepsRepeatAndTraceIsCycleNeutral runs every workload at a tiny size
// untraced and traced with the same seed: every in-rep check must pass,
// the virtual metrics and outputs must be identical, and the traced rep
// must yield every per-layer metric.
func TestRepsRepeatAndTraceIsCycleNeutral(t *testing.T) {
	tiny := map[string]int{"fork-small": 8, "fork-bigio-p4": 16, "pagefault-ring": 10, "llm-infer": 1, "chaos-audit": 8}
	for _, wl := range workloadList {
		t.Run(wl.name, func(t *testing.T) {
			var got [2]*repResult
			for i, traced := range []bool{false, true} {
				res, err := runRep(wl, 7, tiny[wl.name], traced, "")
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if len(res.Errors) > 0 {
					t.Errorf("traced=%v: %v", traced, res.Errors)
				}
				got[i] = res
			}
			a, _ := json.Marshal(got[0].virtualPart())
			b, _ := json.Marshal(got[1].virtualPart())
			if !bytes.Equal(a, b) {
				t.Errorf("virtual metrics differ between the untraced and the traced rep:\n%s\n%s", a, b)
			}
			layers := perLayerMetrics(got[1], got[0])
			for _, s := range perLayer {
				if _, ok := layers[s.Name]; !ok {
					t.Errorf("per-layer metric %s missing", s.Name)
				}
			}
			e2e := endToEndMetrics(got[:1])
			for _, s := range endToEnd {
				if e2e[s.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", s.Name, e2e[s.Name])
				}
			}
		})
	}
}

//go:noinline
func spinForProfile(d time.Duration) uint64 {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestParsePprofReadsRuntimeProfile decodes a CPU profile written by
// runtime/pprof and finds the function that burned the CPU.
func TestParsePprofReadsRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	spinForProfile(200 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parsePprof(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, spin int64
	for _, s := range samples {
		total += s.nanos
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spinForProfile") {
				spin += s.nanos
				break
			}
		}
	}
	if total < int64(50*time.Millisecond) || spin < total/2 {
		t.Fatalf("profile holds %v of CPU, %v in spinForProfile; want most of 200ms", time.Duration(total), time.Duration(spin))
	}
	if _, err := parsePprof([]byte{0x0a, 0xff}); err == nil {
		t.Error("truncated profile parsed without error")
	}
}

func TestHostLayer(t *testing.T) {
	m := modulePrefix
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", m + "paging.(*Tables).Walk", m + "monitor.(*Monitor).Audit", m + "serve.(*Server).Run"}, "watchdog"},
		{[]string{"crypto/ecdh.x25519", m + "secchan.ClientHello", m + "serve.(*Server).tick"}, "secchan"},
		{[]string{m + "trace.(*Recorder).Emit", m + "kernel.(*Kernel).dispatch"}, "obs"},
		{[]string{m + "workloads/llm.(*state).forward"}, "workloads"},
		{[]string{m + "task.(*Yield).Yield"}, "kernel"},
		{[]string{m + "tdx.(*Module).TDCall"}, "other"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
	} {
		if got := hostLayer(c.stack); got != c.want {
			t.Errorf("hostLayer(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
