package serve

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/faultinject"
)

// forkConfig is the stock fork-pool test shape: small heap so setup costs
// (declare + zero vs CoW breaks) dominate, watchdog on so every phase
// boundary sweeps I1-I9.
func forkConfig(seed int64, tenants, sessions int) Config {
	return Config{
		Tenants: tenants, Sessions: sessions, Seed: seed,
		InputBytes: 512, ModelBytes: 16 << 10, HeapPages: 256,
		ForkPool: true, Watchdog: true,
	}
}

// TestServeForkPool runs a fork-pool fleet end to end: every session must
// be served by a forked sandbox, none by a cold relaunch, and the run must
// leave the invariant sweep clean.
func TestServeForkPool(t *testing.T) {
	s, err := New(forkConfig(42, 4, 16))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Failed != 0 || rep.Completed != 16 {
		t.Fatalf("completed=%d failed=%d, want 16/0", rep.Completed, rep.Failed)
	}
	if rep.ForkSessions != 16 {
		t.Errorf("ForkSessions = %d, want 16 (every session forked)", rep.ForkSessions)
	}
	if rep.ColdSessions != 0 || rep.Relaunches != 0 {
		t.Errorf("cold sessions = %d, relaunches = %d, want 0/0 (no fork was denied)",
			rep.ColdSessions, rep.Relaunches)
	}
	if rep.Forks < 16 {
		t.Errorf("Forks = %d, want >= 16", rep.Forks)
	}
	if rep.TemplatePages == 0 {
		t.Error("TemplatePages = 0, want the template's confined image size")
	}
	if rep.CowBreaks == 0 {
		t.Error("CowBreaks = 0, want write faults breaking template pages")
	}
	for _, r := range rep.Results {
		if !r.Forked {
			t.Errorf("tenant %d not marked forked", r.Tenant)
		}
	}
	w := s.World()
	if n := w.Mon.WatchdogNonInjected(); n != 0 {
		t.Errorf("watchdog flagged %d violations: %v", n, w.Mon.WatchdogEvents())
	}
	if vs := w.Mon.Audit(); len(vs) != 0 {
		t.Errorf("audit after run: %v", vs)
	}
	// All forks are dead: the template must release, its refcounts having
	// returned to the baseline the destroy path asserts.
	if err := s.ReleaseTemplate(); err != nil {
		t.Fatalf("ReleaseTemplate: %v", err)
	}
	if vs := w.Mon.Audit(); len(vs) != 0 {
		t.Errorf("audit after template destroy: %v", vs)
	}
}

// TestServeForkBeatsCold is the fork pool's headline claim at test scale:
// forking the template must beat a cold sandbox boot per session, and its
// mean turnaround-to-first-compute must come in under a fifth of cold's.
// Both runs share seed and shape — a serving-sized heap, so the turnover
// mechanism (declare + zero vs O(pages touched) CoW breaks) is what the
// window actually measures — and the only variable is that mechanism.
func TestServeForkBeatsCold(t *testing.T) {
	fcfg := forkConfig(7, 2, 12)
	fcfg.HeapPages = 2048
	ccfg := fcfg
	ccfg.ForkPool = false
	cold, err := Run(ccfg)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	fork, err := Run(fcfg)
	if err != nil {
		t.Fatalf("fork run: %v", err)
	}
	if cold.Completed != 12 || fork.Completed != 12 {
		t.Fatalf("completed cold=%d fork=%d, want 12/12", cold.Completed, fork.Completed)
	}
	if cold.Forks != 0 || cold.Relaunches == 0 {
		t.Fatalf("cold run: forks=%d relaunches=%d, want 0/>0", cold.Forks, cold.Relaunches)
	}
	if fork.Forks == 0 || fork.Relaunches != 0 {
		t.Fatalf("fork run: forks=%d relaunches=%d, want >0/0", fork.Forks, fork.Relaunches)
	}
	if cold.FirstComputeCycles == 0 || fork.FirstComputeCycles == 0 {
		t.Fatalf("missing first-compute figures: cold=%d fork=%d",
			cold.FirstComputeCycles, fork.FirstComputeCycles)
	}
	if fork.CyclesPerSession >= cold.CyclesPerSession {
		t.Errorf("fork (%d cycles/session) not cheaper than cold creation (%d)",
			fork.CyclesPerSession, cold.CyclesPerSession)
	}
	if fork.FirstComputeCycles >= cold.FirstComputeCycles/5 {
		t.Errorf("fork first-compute %d >= cold/5 (%d/5)",
			fork.FirstComputeCycles, cold.FirstComputeCycles)
	}
}

// TestForkDeterminism: two fork-pool runs with the same (seed, parallelism)
// produce byte-identical reports — CoW fault ordering, refcount churn and
// shootdown batching all replay exactly.
func TestForkDeterminism(t *testing.T) {
	for _, p := range []struct {
		seed    int64
		tenants int
		vcpus   int
	}{{3, 2, 1}, {9, 4, 2}} {
		p := p
		t.Run(fmt.Sprintf("seed%d_t%d_v%d", p.seed, p.tenants, p.vcpus), func(t *testing.T) {
			run := func() []byte {
				cfg := forkConfig(p.seed, p.tenants, p.tenants*3)
				cfg.VCPUs = p.vcpus
				rep, err := Run(cfg)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				return rep.JSON()
			}
			a, b := run(), run()
			if !bytes.Equal(a, b) {
				t.Fatalf("fork-pool reports differ between identical runs:\n--- a ---\n%s\n--- b ---\n%s", a, b)
			}
		})
	}
}

// TestServeForkChaosFleet is the chaos suite, run on the fork pool: 20
// seeded fault schedules of every class on the untrusted hop against a
// 64-session fleet. Every tenant is reported exactly once, completing or
// failing typed — the server must terminate, no hangs; dead forked workers
// must tear down through the CoW release path without tripping I9; the
// watchdog must see nothing non-injected, the audit must end clean and the
// template must still release.
func TestServeForkChaosFleet(t *testing.T) {
	const sessions = 64
	seeds := int64(20)
	if testing.Short() {
		seeds = 5
	}
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			plan := faultinject.Uniform(seed, 0.05)
			cfg := forkConfig(seed, 8, sessions)
			cfg.Chaos = &plan
			s, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			rep, err := s.Run()
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if rep.Completed+rep.Failed != sessions {
				t.Fatalf("accounted %d sessions, want %d", rep.Completed+rep.Failed, sessions)
			}
			if len(rep.Results) != sessions {
				t.Fatalf("%d results, want %d", len(rep.Results), sessions)
			}
			seen := make(map[int]bool, sessions)
			for _, r := range rep.Results {
				if seen[r.Tenant] {
					t.Fatalf("tenant %d reported twice", r.Tenant)
				}
				seen[r.Tenant] = true
				if r.Err == "" && r.ReplyBytes == 0 {
					t.Errorf("tenant %d neither failed nor replied", r.Tenant)
				}
				if r.Err != "" && !typedErr(r.Err) {
					t.Errorf("tenant %d: untyped failure %q", r.Tenant, r.Err)
				}
			}
			if got := s.World().Inj.Counters.Total(); got == 0 {
				t.Fatal("chaos run injected no faults")
			}
			w := s.World()
			if n := w.Mon.WatchdogNonInjected(); n != 0 {
				t.Errorf("watchdog flagged %d violations: %v", n, w.Mon.WatchdogEvents())
			}
			if vs := w.Mon.Audit(); len(vs) != 0 {
				t.Errorf("audit violations: %v", vs)
			}
			if err := s.ReleaseTemplate(); err != nil {
				t.Errorf("ReleaseTemplate after chaos: %v", err)
			}
		})
	}
}
