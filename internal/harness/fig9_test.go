package harness

import (
	"strings"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/workloads"
	"github.com/asterisc-release/erebor-go/internal/workloads/graph"
	"github.com/asterisc-release/erebor-go/internal/workloads/ids"
	"github.com/asterisc-release/erebor-go/internal/workloads/imgproc"
	"github.com/asterisc-release/erebor-go/internal/workloads/llm"
	"github.com/asterisc-release/erebor-go/internal/workloads/retrieval"
)

func testOptions() ScenarioOptions {
	return ScenarioOptions{ReclaimPerTick: 4, CPUIDEvery: 2, MemMB: 96}
}

// nativeOutputs pins the scale-1 native response of every Fig 9 workload
// but llama.cpp, whose output llm's TestForwardMatchesReference pins to a
// plain-slice transformer. runAll also requires every configuration to
// match native, so together they catch a kernel change that moves all
// three configurations alike.
var nativeOutputs = map[string]string{
	"yolo":     "images=14 detections=125 grid=90098988970800",
	"drugbank": "queries=42000 hits=36703 misses=5297 checksum=db1e2da9af197e61",
	"graphchi": "nodes=8000 edges=60000 iters=8 top=0 rank=0.001191 sum=0.9984",
	"unicorn":  "events=40000 windows=10 anomalies=6 window@12000 chi=1979;window@16000 chi=1818;window@24000 chi=5065;window@28000 chi=1872;window@36000 chi=1858;window@40000 chi=1879;",
}

// runAll runs a workload under every Fig 9 configuration and sanity-checks
// consistency of outputs and ordering of costs, and the native output
// against nativeOutputs.
func runAll(t *testing.T, wl workloads.Workload) map[ScenarioConfig]*ScenarioResult {
	t.Helper()
	out := make(map[ScenarioConfig]*ScenarioResult)
	for _, cfg := range AllConfigs {
		r, err := RunScenario(wl, cfg, testOptions())
		if err != nil {
			t.Fatalf("%s/%s: %v", wl.Name(), cfg, err)
		}
		if r.RunCycles == 0 {
			t.Fatalf("%s/%s: zero run cycles", wl.Name(), cfg)
		}
		out[cfg] = r
	}
	// The computation must be identical across configurations.
	if out[CfgNative].Output != out[CfgErebor].Output ||
		out[CfgNative].Output != out[CfgLibOSOnly].Output {
		t.Fatalf("outputs differ across configs:\n native: %s\n libos:  %s\n erebor: %s",
			out[CfgNative].Output, out[CfgLibOSOnly].Output, out[CfgErebor].Output)
	}
	if want, ok := nativeOutputs[wl.Name()]; ok && out[CfgNative].Output != want {
		t.Errorf("%s: native output\n got %s\nwant %s", wl.Name(), out[CfgNative].Output, want)
	}
	// Erebor must cost more than native, and the overhead must be sane
	// (under 2x — the paper reports 4.5%-13.2%).
	oh := float64(out[CfgErebor].RunCycles)/float64(out[CfgNative].RunCycles) - 1
	if oh <= 0 {
		t.Errorf("%s: Erebor faster than native (overhead %.2f%%)", wl.Name(), oh*100)
	}
	if oh > 1.0 {
		t.Errorf("%s: Erebor overhead unreasonably high: %.2f%%", wl.Name(), oh*100)
	}
	if out[CfgErebor].EMCs == 0 {
		t.Errorf("%s: no EMCs recorded in Erebor run", wl.Name())
	}
	t.Logf("%s: native=%d libos=%d erebor=%d overhead=%.2f%% EMC=%d PF=%d",
		wl.Name(), out[CfgNative].RunCycles, out[CfgLibOSOnly].RunCycles,
		out[CfgErebor].RunCycles, oh*100, out[CfgErebor].EMCs, out[CfgErebor].PageFaults)
	return out
}

func TestScenarioLLM(t *testing.T) {
	res := runAll(t, llm.New(1))
	if !strings.Contains(res[CfgErebor].Output, "tokens=") {
		t.Fatalf("unexpected output: %s", res[CfgErebor].Output)
	}
}

func TestScenarioImgproc(t *testing.T) {
	res := runAll(t, imgproc.New(1))
	if !strings.Contains(res[CfgErebor].Output, "detections=") {
		t.Fatalf("unexpected output: %s", res[CfgErebor].Output)
	}
}

func TestScenarioRetrieval(t *testing.T) {
	res := runAll(t, retrieval.New(1))
	o := res[CfgErebor].Output
	if !strings.Contains(o, "hits=") || strings.Contains(o, "hits=0 ") {
		t.Fatalf("unexpected output: %s", o)
	}
}

func TestScenarioGraph(t *testing.T) {
	res := runAll(t, graph.New(1))
	if !strings.Contains(res[CfgErebor].Output, "top=") {
		t.Fatalf("unexpected output: %s", res[CfgErebor].Output)
	}
}

func TestScenarioIDS(t *testing.T) {
	res := runAll(t, ids.New(1))
	o := res[CfgErebor].Output
	if !strings.Contains(o, "anomalies=") {
		t.Fatalf("unexpected output: %s", o)
	}
	// The injected APT burst must be detected.
	if strings.Contains(o, "anomalies=0 ") {
		t.Fatalf("detector missed the injected anomaly: %s", o)
	}
}
