package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"syscall"

	"github.com/asterisc-release/erebor-go/internal/abi"
	"github.com/asterisc-release/erebor-go/internal/faultinject"
	"github.com/asterisc-release/erebor-go/internal/harness"
	"github.com/asterisc-release/erebor-go/internal/kernel"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/metrics"
	"github.com/asterisc-release/erebor-go/internal/paging"
	"github.com/asterisc-release/erebor-go/internal/prof"
	"github.com/asterisc-release/erebor-go/internal/serve"
	"github.com/asterisc-release/erebor-go/internal/workloads"
	"github.com/asterisc-release/erebor-go/internal/workloads/llm"
)

// workload is one benchmark workload; run executes one rep of ops
// operations. Every workload is a closed loop: a client sends its next
// request only after the previous reply was validated.
type workload struct {
	name string
	why  string
	// ops is the rep size: about two seconds of CPU on a 2-vCPU x86-64
	// host (an inference takes under one).
	ops int
	run func(r *rep, ops int) error
	// reference, when set, runs the workload's inputs outside Erebor; the
	// reps' output must match it. paperOverheadPct is the paper's Erebor
	// overhead over that reference, printed beside the measured one.
	reference        func(seed int64) (output string, vcycles uint64, err error)
	paperOverheadPct float64
}

var workloadList = []*workload{
	{
		name: "fork-small",
		why:  "the production fork fast-start path at the paper's 1 KiB request shape; the attested handshake dominates and CoW work is light",
		ops:  1500,
		run: func(r *rep, ops int) error {
			return serveRep(r, serve.Config{Tenants: 8, Sessions: ops, Seed: r.seed,
				ForkPool: true, InputBytes: 1 << 10, ModelBytes: 64 << 10})
		},
	},
	{
		name: "fork-bigio-p4",
		why:  "the fork path write-heavy at P=4 with 64 KiB requests: the most shootdown IPIs and the lowest TLB hit ratio",
		ops:  600,
		run: func(r *rep, ops int) error {
			return serveRep(r, serve.Config{Tenants: 16, Sessions: ops, Seed: r.seed,
				ForkPool: true, VCPUs: 4, InputBytes: 64 << 10, ModelBytes: 64 << 10})
		},
	},
	{
		name: "pagefault-ring",
		why:  "the kernel fault path with ring-batched monitor MMU calls and no serve, secchan or attest code",
		ops:  6000,
		run:  pagefaultRep,
	},
	{
		name: "llm-infer",
		why:  "the paper's Fig 9 llama.cpp steady state: long in-sandbox compute where Erebor layers are light (the control)",
		ops:  1,
		run:  llmRep,

		reference:        llmNative,
		paperOverheadPct: 13.15,
	},
	{
		name: "chaos-audit",
		why:  "an adversarial untrusted hop with egress policy and the invariant watchdog on: the only real latency tail",
		ops:  400,
		run: func(r *rep, ops int) error {
			// The fault schedule is part of the workload, not drawn from
			// -seed: every run meets the same adversary, so its tail is
			// comparable across seeds.
			plan := faultinject.Uniform(chaosPlanSeed, 0.02).WithLatency(0.05, 0)
			return serveRep(r, serve.Config{Tenants: 8, Sessions: ops, Seed: r.seed,
				ForkPool: true, VCPUs: 2, InputBytes: 1 << 10, ModelBytes: 64 << 10,
				Chaos: &plan, Egress: serve.DefaultEgressSpec(), Watchdog: true})
		},
	},
}

// chaosPlanSeed seeds chaos-audit's fault schedule.
const chaosPlanSeed = 1

func findWorkload(name string) *workload {
	for _, wl := range workloadList {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// rep is the state of one rep while it runs in its own process. Every rep
// of a run does the same work on the same inputs.
type rep struct {
	seed    int64 // the run's -seed; every input derives from it
	traced  bool
	res     repResult
	spans   *spanLog // nil unless traced
	root    int
	counts  map[string]uint64 // counter changes over the op windows
	stacks  map[string]uint64 // folded virtual-cycle stacks (traced)
	cpu0    float64
	ms0     runtime.MemStats
	pbuf    bytes.Buffer
	cpuProf [][]byte // one host CPU profile per op window (traced)
}

// fail records a correctness failure.
func (r *rep) fail(format string, args ...any) {
	r.res.Errors = append(r.res.Errors, fmt.Sprintf(format, args...))
}

// cpuTime is the process's CPU time (every thread, user and system) in
// seconds.
func cpuTime() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// openWindow starts measuring an op window: CPU time, allocations and, in
// a traced rep, a host CPU profile.
func (r *rep) openWindow() error {
	runtime.ReadMemStats(&r.ms0)
	if r.traced {
		r.pbuf.Reset()
		if err := pprof.StartCPUProfile(&r.pbuf); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
	}
	r.cpu0 = cpuTime()
	return nil
}

func (r *rep) closeWindow() {
	r.res.OpCPU += cpuTime() - r.cpu0
	if r.traced {
		pprof.StopCPUProfile()
		r.cpuProf = append(r.cpuProf, bytes.Clone(r.pbuf.Bytes()))
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.res.Allocs += ms.Mallocs - r.ms0.Mallocs
	r.res.AllocBytes += ms.TotalAlloc - r.ms0.TotalAlloc
}

// addProfile merges a cycle profiler's stacks into the rep's and checks
// that it conserves against the attribution in met.
func (r *rep) addProfile(p *prof.Profiler, met *metrics.Registry) {
	if bad := p.CheckConservation(met); len(bad) > 0 {
		r.fail("cycle profile does not conserve: %v", bad)
	}
	for k, v := range p.Stacks() {
		r.stacks[k] += v
	}
}

// serveRep serves cfg.Sessions sessions through the multi-tenant server
// with the fork pool, and checks every reply and the fork, watchdog and
// egress invariants.
func serveRep(r *rep, cfg serve.Config) error {
	cfg.Profile, cfg.Trace = r.traced, r.traced
	sp := r.spans.begin("setup", r.root)
	t0 := cpuTime()
	s, err := serve.New(cfg)
	if err != nil {
		return err
	}
	r.res.SetupCPU = append(r.res.SetupCPU, cpuTime()-t0)
	r.spans.end(sp)
	w := s.World()
	r.res.SetupV = w.M.Clock.Now()
	rounds := 0
	s.Hook = func(round int) { rounds = round + 1 }
	before := counters(w.K)

	sp = r.spans.begin("run", r.root)
	if err := r.openWindow(); err != nil {
		return err
	}
	report, err := s.Run()
	r.closeWindow()
	r.spans.end(sp)
	if err != nil {
		return err
	}

	sp = r.spans.begin("check", r.root)
	defer r.spans.end(sp)
	addDelta(r.counts, counters(w.K), before)
	r.counts["rounds"] = uint64(rounds)
	r.counts["egress_decisions"] = report.EgressAllowed + report.EgressDenied
	r.res.Ops, r.res.Failed = cfg.Sessions, report.Failed
	r.res.WallV = report.TotalCycles
	if report.Completed+report.Failed != cfg.Sessions {
		r.fail("%d completed + %d failed != %d sessions", report.Completed, report.Failed, cfg.Sessions)
	}
	var ttfc []uint64
	for _, x := range report.Results {
		if x.Err != "" {
			continue
		}
		// The server compares every reply byte against the expected
		// transform and fails the session on a mismatch.
		if x.ReplyBytes != cfg.InputBytes {
			r.fail("tenant %d: %d-byte reply to a %d-byte request", x.Tenant, x.ReplyBytes, cfg.InputBytes)
		}
		r.res.Lat = append(r.res.Lat, x.Cycles)
		if x.FirstCompute > 0 {
			ttfc = append(ttfc, x.FirstCompute)
		}
	}
	c := countMetrics(r.counts, cfg.Sessions, report.Completed)
	c["serve.ttfc_p50_vcycles"] = float64(percentile(ttfc, 0.50))
	c["serve.ttfc_p99_vcycles"] = float64(percentile(ttfc, 0.99))
	for _, row := range s.PhaseBreakdown() {
		for ph, v := range row.Cycles {
			k := "phase." + ph + "_vcycles_per_op"
			if _, ok := c[k]; !ok {
				r.fail("phase %q has no per-layer metric", ph)
			}
			c[k] += float64(v) / float64(cfg.Sessions)
		}
	}
	r.res.Counts = c

	mon := w.Mon
	if cfg.Watchdog {
		if n := mon.WatchdogNonInjected(); n != 0 {
			r.fail("watchdog: %d non-injected invariant violations", n)
		}
	}
	if cfg.Egress != nil {
		if n := s.ServiceDeliveries()[serve.ExfilDest.String()]; n != 0 {
			r.fail("egress: %d frames reached a destination outside the allowlist", n)
		}
		if report.EgressDenied != report.EgressDenialsSeen+report.EgressDenialDrops {
			r.fail("egress: %d denials != %d seen + %d dropped", report.EgressDenied, report.EgressDenialsSeen, report.EgressDenialDrops)
		}
	}
	// With every fork dead the template must release cleanly, and the
	// audit must find every frame's refcount back at baseline.
	if vs := mon.Audit(); len(vs) != 0 {
		r.fail("audit after run: %v", vs)
	}
	if err := s.ReleaseTemplate(); err != nil {
		r.fail("fork template release: %v", err)
	}
	if vs := mon.Audit(); len(vs) != 0 {
		r.fail("audit after template release: %v", vs)
	}
	if r.traced {
		r.addProfile(s.Profiler(), w.Met)
	}
	return nil
}

// pfPages is the file-backed span each pagefault op maps, faults in and
// unmaps: lmbench's lat_pagefault shape.
const pfPages = 64

// pfPhase is the attribution phase of the traced pagefault run.
const pfPhase = "pagefault"

// pagefaultRep drives lat_pagefault ops from a benchmark-owned task on an
// Erebor world with the monitor's submission ring on, timing each op on the
// virtual clock and checking one byte per faulted page against the file.
func pagefaultRep(r *rep, ops int) error {
	sp := r.spans.begin("setup", r.root)
	t0 := cpuTime()
	w, err := harness.NewWorld(harness.WorldConfig{Mode: kernel.ModeErebor, MemMB: 64, Trace: r.traced})
	if err != nil {
		return err
	}
	w.Mon.RingMMU = true
	file := seededBytes(r.seed, pfPages*mem.PageSize)
	const path = "/bench/pffile"
	w.K.VFS().Create(path, file)
	var p *prof.Profiler
	if r.traced {
		p = prof.New(w.Attr)
		w.M.AttachProfiler(p)
	}
	runSpan := 0
	var first, last uint64
	done := 0
	t, err := w.K.Spawn("lat-pagefault", mem.OwnerTaskBase, func(e *kernel.Env) {
		fd := openFile(e, path)
		if abi.IsError(fd) {
			r.fail("open %s: errno %d", path, abi.Err(fd))
			return
		}
		for i := 0; i < ops; i++ {
			osp := r.spans.begin("op", runSpan)
			start := w.M.Clock.Now()
			va := e.MmapFile(fd, pfPages*mem.PageSize)
			if abi.IsError(uint64(va)) {
				r.fail("op %d: mmap errno %d", i, abi.Err(uint64(va)))
				return
			}
			for pg := 0; pg < pfPages; pg++ {
				e.Touch(va+paging.Addr(pg*mem.PageSize), 1, false)
			}
			// Page reads the mapped frame without charging the clock, so
			// the check leaves the op's virtual latency untouched.
			for pg := 0; pg < pfPages; pg++ {
				off := (i*131 + pg*17) % mem.PageSize
				if got, want := e.Page(va + paging.Addr(pg*mem.PageSize))[off], file[pg*mem.PageSize+off]; got != want {
					r.fail("op %d page %d: read %#x, file holds %#x", i, pg, got, want)
					return
				}
			}
			e.Munmap(va, pfPages*mem.PageSize)
			end := w.M.Clock.Now()
			r.spans.end(osp)
			if i == 0 {
				first = start
			}
			last = end
			r.res.Lat = append(r.res.Lat, end-start)
			done++
		}
	})
	if err != nil {
		return err
	}
	r.res.SetupCPU = append(r.res.SetupCPU, cpuTime()-t0)
	r.spans.end(sp)

	before := counters(w.K)
	runSpan = r.spans.begin("run", r.root)
	vStart := w.M.Clock.Now()
	p.Start()
	w.Attr.Phase = pfPhase
	if err := r.openWindow(); err != nil {
		return err
	}
	w.K.Schedule()
	r.closeWindow()
	w.Attr.Phase = ""
	p.Stop()
	r.spans.end(runSpan)

	sp = r.spans.begin("check", r.root)
	defer r.spans.end(sp)
	if t.ExitReason != "" {
		r.fail("pagefault task: %s", t.ExitReason)
	}
	addDelta(r.counts, counters(w.K), before)
	r.res.Ops, r.res.Failed = ops, ops-done
	r.res.SetupV = first
	r.res.WallV = last - first
	r.res.Counts = countMetrics(r.counts, ops, done)
	if p != nil {
		// Flush the window into the attribution registry the way the
		// serving loop's phase cursor does, so conservation is checkable.
		w.Met.Add(metrics.FamilyTenantPhaseCycles, w.M.Clock.Now()-vStart,
			metrics.KV("phase", pfPhase), metrics.KV("tenant", metrics.TenantLabelOf(metrics.NoTenant)))
		r.addProfile(p, w.Met)
	}
	return nil
}

func openFile(e *kernel.Env, path string) uint64 {
	scratch := e.Mmap(mem.PageSize, true, false)
	e.WriteMem(scratch, []byte(path))
	return e.Syscall(abi.SysOpen, uint64(scratch), uint64(len(path)))
}

// seededBytes is deterministic filler derived from seed.
func seededBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	x := uint64(seed)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	for i := range b {
		x = x*6364136223846793005 + 1442695040888963407
		b[i] = byte(x >> 33)
	}
	return b
}

// llmScale sizes the transformer: a ~3 MB shared model, bigger than the
// TLB's reach, and 375 tokens per inference.
const llmScale = 8

// inferPhase is the attribution phase of a traced inference.
const inferPhase = "infer"

// inference wraps the llama.cpp workload so the benchmark can see the
// inference itself: harness.RunScenario builds the world internally, and
// Run is the first point with access to it.
type inference struct {
	*llm.Workload
	r         *rep
	gcPercent int // restored when the inference begins
	setupSpan int
	setupEnd  float64 // CPU time when the inference began
	vStart    uint64
	prof      *prof.Profiler
	met       *metrics.Registry
	err       error
}

func (inf *inference) Run(ctx *workloads.Ctx) []byte {
	r, k := inf.r, ctx.E.K
	debug.SetGCPercent(inf.gcPercent)
	inf.setupEnd = cpuTime()
	r.spans.end(inf.setupSpan)
	if r.traced {
		inf.prof, inf.met = prof.New(k.Attr), k.Met
		k.M.AttachProfiler(inf.prof)
		inf.prof.Start()
		k.Attr.Phase = inferPhase
	}
	inf.vStart = k.M.Clock.Now()
	before := counters(k)
	sp := r.spans.begin("op", r.root)
	if inf.err = r.openWindow(); inf.err != nil {
		return nil
	}
	out := inf.Workload.Run(ctx)
	r.closeWindow()
	r.spans.end(sp)
	addDelta(r.counts, counters(k), before)
	if inf.prof != nil {
		k.Attr.Phase = ""
		inf.prof.Stop()
		k.Met.Add(metrics.FamilyTenantPhaseCycles, k.M.Clock.Now()-inf.vStart,
			metrics.KV("phase", inferPhase), metrics.KV("tenant", metrics.TenantLabelOf(metrics.NoTenant)))
	}
	return out
}

// llmRep runs ops inferences of one seeded prompt through
// harness.RunScenario under full Erebor, each on a freshly booted world.
// Every inference must give the same output; the run compares it with
// llmNative's.
func llmRep(r *rep, ops int) error {
	opt := harness.DefaultScenarioOptions()
	opt.Trace = r.traced
	for i := 0; i < ops; i++ {
		// The garbage collector stays off until the inference begins: the
		// world's 160 MB of simulated memory must not land on heap pages
		// freed during set-up, which Go would zero and so make resident.
		// When that happens depends on the timing of background sweeping,
		// and with it the rep's set-up time and peak memory.
		gcPercent := debug.SetGCPercent(-1)
		t0 := cpuTime()
		inf := &inference{Workload: llm.New(llmScale), r: r, gcPercent: gcPercent,
			setupSpan: r.spans.begin("setup", r.root)}
		inf.Prompt = seededPrompt(r.seed, len(inf.Prompt))
		res, err := harness.RunScenario(inf, harness.CfgErebor, opt)
		if err == nil {
			err = inf.err
		}
		if err != nil {
			return fmt.Errorf("inference %d: %w", i, err)
		}
		r.res.SetupCPU = append(r.res.SetupCPU, inf.setupEnd-t0)
		if i == 0 {
			r.res.SetupV = inf.vStart
			r.res.Output = res.Output
		} else if res.Output != r.res.Output {
			r.fail("inference %d: output %q differs from inference 0's %q", i, res.Output, r.res.Output)
		}
		r.res.Lat = append(r.res.Lat, res.RunCycles)
		r.res.WallV += res.RunCycles
		if inf.prof != nil {
			r.addProfile(inf.prof, inf.met)
		}
	}
	r.res.Ops = ops
	r.res.Counts = countMetrics(r.counts, ops, ops)
	return nil
}

// llmNative runs the seeded prompt natively, outside any sandbox: Erebor
// must not change the output.
func llmNative(seed int64) (string, uint64, error) {
	wl := llm.New(llmScale)
	wl.Prompt = seededPrompt(seed, len(wl.Prompt))
	res, err := harness.RunScenario(wl, harness.CfgNative, harness.DefaultScenarioOptions())
	if err != nil {
		return "", 0, err
	}
	return res.Output, res.RunCycles, nil
}

// seededPrompt is n lowercase letters and spaces derived from seed.
func seededPrompt(seed int64, n int) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz "
	b := seededBytes(seed, n)
	for i := range b {
		b[i] = alphabet[int(b[i])%len(alphabet)]
	}
	return string(b)
}
