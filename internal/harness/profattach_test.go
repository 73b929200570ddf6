package harness

import (
	"strings"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/metrics"
	"github.com/asterisc-release/erebor-go/internal/prof"
	"github.com/asterisc-release/erebor-go/internal/workloads"
	"github.com/asterisc-release/erebor-go/internal/workloads/llm"
)

// attachMidTask runs an inference with a cycle profiler attached from
// inside the running task, the way a traced benchmark rep first reaches
// the world: the scheduler's kernel/dispatch frame is already open when
// the profiler attaches.
type attachMidTask struct {
	*llm.Workload
	p        *prof.Profiler
	met      *metrics.Registry
	attr     *metrics.Attr
	atAttach int
	flushed  uint64
}

func (a *attachMidTask) Run(ctx *workloads.Ctx) []byte {
	k := ctx.E.K
	a.p, a.met, a.attr = prof.New(k.Attr), k.Met, k.Attr
	k.M.AttachProfiler(a.p)
	a.atAttach = k.Attr.FrameDepth()
	a.p.Start()
	k.Attr.Phase = "infer"
	start := k.M.Clock.Now()
	out := a.Workload.Run(ctx)
	k.Attr.Phase = ""
	a.p.Stop()
	// The caller flushes its own window: a plain Phase write records
	// nothing, so this is the only record of these cycles.
	a.flushed = k.M.Clock.Now() - start
	k.Met.Add(metrics.FamilyTenantPhaseCycles, a.flushed,
		metrics.KV("phase", "infer"), metrics.KV("tenant", metrics.TenantLabelOf(metrics.NoTenant)))
	return out
}

// TestProfilerAttachedMidTask: a profiler attached inside a running task
// sees no frame opened before the attach — compute charged in that
// dispatch slice lands on the bare (tenant, phase) root, not under
// kernel/dispatch — the frame depth returns to 0 once the slice's own
// pops have run, and the profile conserves exactly against the window
// the caller flushed.
func TestProfilerAttachedMidTask(t *testing.T) {
	a := &attachMidTask{Workload: llm.New(1)}
	opt := DefaultScenarioOptions()
	opt.Trace = true
	if _, err := RunScenario(a, CfgErebor, opt); err != nil {
		t.Fatal(err)
	}
	if a.p == nil {
		t.Fatal("workload never ran")
	}
	if a.atAttach != 0 {
		t.Fatalf("context held %d frames at attach time", a.atAttach)
	}
	if d := a.attr.FrameDepth(); d != 0 {
		t.Fatalf("frame depth %d after the run, want 0", d)
	}
	if bad := a.p.CheckConservation(a.met); len(bad) > 0 {
		t.Fatalf("profile does not conserve: %v", bad)
	}
	stacks := a.p.Stacks()
	const root = "tenant:-1;phase:infer"
	if stacks[root+";user/compute"] == 0 {
		t.Fatalf("no compute on the bare root: the pre-attach slice's frames leaked into the profile\n%v", stacks)
	}
	var total uint64
	for s, n := range stacks {
		if !strings.HasPrefix(s, root) {
			t.Errorf("stack %q outside the inference window", s)
		}
		total += n
	}
	if total != a.flushed {
		t.Fatalf("profile holds %d cycles, the window %d", total, a.flushed)
	}
}
