package serve

import (
	"bytes"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/faultinject"
	"github.com/asterisc-release/erebor-go/internal/monitor"
	"github.com/asterisc-release/erebor-go/internal/secchan"
	"github.com/asterisc-release/erebor-go/internal/trace"
)

// TestServeFaultFree: a small fork-pool fleet serves every tenant, and
// every worker — initial launch and every turnover — is a fork of the
// template rather than a cold relaunch.
func TestServeFaultFree(t *testing.T) {
	rep, err := Run(Config{Tenants: 4, Sessions: 12, Seed: 7, ForkPool: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 12 || rep.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want 12/0", rep.Completed, rep.Failed)
	}
	// Each of the 4 slots serves 3 tenants: 1 initial fork + 2 turnovers.
	if rep.ForkSessions != 12 || rep.Forks != 12 {
		t.Fatalf("forked sessions=%d forks=%d, want 12/12", rep.ForkSessions, rep.Forks)
	}
	if rep.Relaunches != 0 {
		t.Fatalf("relaunches=%d on the fork path", rep.Relaunches)
	}
	for _, r := range rep.Results {
		if r.Err != "" {
			t.Fatalf("tenant %d failed: %s", r.Tenant, r.Err)
		}
		if r.ReplyBytes == 0 {
			t.Fatalf("tenant %d got an empty reply", r.Tenant)
		}
	}
}

// TestServeDeterminism: two full serving runs from the same seed produce
// byte-identical reports and byte-identical trace exports (Chrome +
// Prometheus), which is what makes the serving benchmark reproducible.
func TestServeDeterminism(t *testing.T) {
	cfg := Config{Tenants: 16, Sessions: 48, Seed: 11, ForkPool: true, Trace: true}
	if !testing.Short() {
		cfg.Tenants, cfg.Sessions = 64, 128
	}

	type capture struct {
		report []byte
		chrome []byte
		prom   []byte
	}
	one := func() capture {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Completed != cfg.Sessions {
			t.Fatalf("completed=%d failed=%d, want %d/0", rep.Completed, rep.Failed, cfg.Sessions)
		}
		var chrome, prom bytes.Buffer
		if err := s.World().Rec.ExportChromeTrace(&chrome); err != nil {
			t.Fatal(err)
		}
		if err := s.World().Rec.ExportPrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		return capture{report: rep.JSON(), chrome: chrome.Bytes(), prom: prom.Bytes()}
	}

	a, b := one(), one()
	if !bytes.Equal(a.report, b.report) {
		t.Error("report JSON differs between identically-seeded runs")
	}
	if !bytes.Equal(a.chrome, b.chrome) {
		t.Error("Chrome trace export differs between identically-seeded runs")
	}
	if !bytes.Equal(a.prom, b.prom) {
		t.Error("Prometheus export differs between identically-seeded runs")
	}
}

// TestServeSMPDeterminism: with the fleet spread across 2 vCPUs the run
// stays byte-deterministic — same (seed, VCPUs), same report JSON and same
// trace export bytes — and every session still completes. This is the SMP
// half of the determinism contract: the round-robin core interleave and
// slot→core assignment are functions of the virtual clock and slot index
// only, never of host scheduling.
func TestServeSMPDeterminism(t *testing.T) {
	for _, vcpus := range []int{2, 4} {
		cfg := Config{Tenants: 16, Sessions: 48, Seed: 11, VCPUs: vcpus, ForkPool: true, Trace: true}

		type capture struct {
			report []byte
			chrome []byte
		}
		one := func() capture {
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Completed != cfg.Sessions || rep.Failed != 0 {
				t.Fatalf("vcpus=%d: completed=%d failed=%d, want %d/0",
					vcpus, rep.Completed, rep.Failed, cfg.Sessions)
			}
			var chrome bytes.Buffer
			if err := s.World().Rec.ExportChromeTrace(&chrome); err != nil {
				t.Fatal(err)
			}
			return capture{report: rep.JSON(), chrome: chrome.Bytes()}
		}

		a, b := one(), one()
		if !bytes.Equal(a.report, b.report) {
			t.Errorf("vcpus=%d: report JSON differs between identically-seeded runs", vcpus)
		}
		if !bytes.Equal(a.chrome, b.chrome) {
			t.Errorf("vcpus=%d: Chrome trace export differs between identically-seeded runs", vcpus)
		}
	}
}

// TestServeSMPSpeedup: spreading the 64-tenant fork-pool fleet across more
// vCPUs must lower the overlap-adjusted cycles/session monotonically from
// P=1 to P=4 (the acceptance criterion for the vCPU sweep).
func TestServeSMPSpeedup(t *testing.T) {
	tenants, sessions := 16, 32
	if !testing.Short() {
		tenants, sessions = 64, 128
	}
	memMB := uint64(256 + tenants*4)
	var per []uint64
	for _, p := range []int{1, 2, 4} {
		rep, err := Run(Config{Tenants: tenants, Sessions: sessions, Seed: 1, MemMB: memMB, VCPUs: p,
			ForkPool: true})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Completed != sessions {
			t.Fatalf("vcpus=%d: completed=%d, want %d", p, rep.Completed, sessions)
		}
		per = append(per, rep.CyclesPerSession)
	}
	if !(per[2] < per[1] && per[1] < per[0]) {
		t.Fatalf("cycles/session not monotonically decreasing over P∈{1,2,4}: %v", per)
	}
}

// TestServeChaosFleetSMP runs the chaos fleet on 2 vCPUs (the CI SMP
// chaos gate): fault-injected sessions spread across cores must still all
// complete or fail typed, with no hangs and a clean monitor audit.
func TestServeChaosFleetSMP(t *testing.T) {
	seeds := 10
	tenants, sessions := 64, 96
	if testing.Short() {
		seeds, tenants, sessions = 3, 16, 24
	}
	for seed := 1; seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			plan := faultinject.Uniform(int64(seed), 0.05)
			s, err := New(Config{
				Tenants: tenants, Sessions: sessions, Seed: int64(seed), VCPUs: 2, Chaos: &plan,
				ForkPool: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Completed+rep.Failed != sessions {
				t.Fatalf("%d completed + %d failed != %d sessions",
					rep.Completed, rep.Failed, sessions)
			}
			for _, r := range rep.Results {
				if r.Err != "" && !typedErr(r.Err) {
					t.Fatalf("tenant %d failed untyped: %s", r.Tenant, r.Err)
				}
			}
			if got := s.World().Inj.Snapshot().Total(); got == 0 {
				t.Fatal("chaos run injected no faults")
			}
			if v := s.World().Mon.Audit(); len(v) != 0 {
				t.Fatalf("monitor audit violations: %v", v)
			}
		})
	}
}

// TestServe256Tenants: the acceptance-scale run — 256 concurrent tenants,
// every session served, deterministically.
func TestServe256Tenants(t *testing.T) {
	if testing.Short() {
		t.Skip("256-tenant run skipped in -short mode")
	}
	cfg := Config{Tenants: 256, Sessions: 256, Seed: 5, MemMB: 1024, ForkPool: true}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Completed != 256 || a.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want 256/0", a.Completed, a.Failed)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.JSON(), b.JSON()) {
		t.Fatal("256-tenant report JSON differs between identically-seeded runs")
	}
}

// TestServeSessionsInterleave: tenant sessions genuinely overlap on the
// virtual clock — the server round-robins sandbox scheduling slices instead
// of serving tenants to completion one after another.
func TestServeSessionsInterleave(t *testing.T) {
	s, err := New(Config{Tenants: 8, Sessions: 8, Seed: 9, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 8 {
		t.Fatalf("completed=%d, want 8", rep.Completed)
	}
	type span struct {
		label      string
		start, end uint64
	}
	var spans []span
	for _, ev := range s.World().Rec.Snapshot() {
		if ev.Kind == trace.KindServeSession {
			spans = append(spans, span{ev.Label, ev.TS, ev.TS + ev.Dur})
		}
	}
	if len(spans) != 8 {
		t.Fatalf("found %d serve-session spans, want 8", len(spans))
	}
	overlaps := 0
	for i := 0; i < len(spans); i++ {
		for j := i + 1; j < len(spans); j++ {
			if spans[i].label == spans[j].label {
				continue
			}
			if spans[i].start < spans[j].end && spans[j].start < spans[i].end {
				overlaps++
			}
		}
	}
	// With 8 concurrent slots every pair should overlap; demand most do.
	if overlaps < 20 {
		t.Fatalf("only %d overlapping tenant-span pairs; sessions are serialized", overlaps)
	}
}

// TestServeFailedSessionRelaunchesCold: a failed session must never hand
// its slot's worker to the next tenant. The worker coroutine's local state
// (request/reply buffers, loop position) would let the next tenant's
// stepping resume an aborted computation and receive the previous tenant's
// reply bytes. After a mid-request abort the slot must destroy the worker,
// retire its sandbox, and launch a fresh one under a new sandbox identity —
// a cold boot by default, a fresh fork of the template on the fork pool —
// and the following tenant must be served correctly.
func TestServeFailedSessionRelaunchesCold(t *testing.T) {
	for _, forkPool := range []bool{false, true} {
		name := "cold"
		if forkPool {
			name = "fork"
		}
		t.Run(name, func(t *testing.T) {
			s, err := New(Config{Tenants: 1, Sessions: 2, Seed: 21, ForkPool: forkPool})
			if err != nil {
				t.Fatal(err)
			}
			sl := s.slots[0]
			oldID := sl.c.ID
			forksBefore := s.w.Mon.Stats.SandboxForks
			// Drive tenant 0 up to the reply wait, so its request is
			// genuinely in flight toward the worker, then abort the session
			// the way a receive timeout does.
			mux := &secchan.MuxProxy{}
			for i := 0; sl.state != stWait; i++ {
				if i > 1000 {
					t.Fatal("session never reached the reply wait")
				}
				mux.Reset()
				mux.Add(sl.sess.Proxy)
				mux.PumpAll(8)
				s.tick(sl)
				if sl.tenant != 0 {
					t.Fatal("tenant 0 finished before the abort could be injected")
				}
			}
			s.fail(sl, fmt.Errorf("serve: injected mid-request abort: %w", secchan.ErrTimeout))

			if sl.c.ID == oldID {
				t.Fatalf("slot still runs sandbox %d after a failed session", oldID)
			}
			// Destroying the worker's address space retires its record.
			if _, ok := s.w.Mon.SandboxInfo(oldID); ok {
				t.Fatalf("failed session's sandbox %d still registered after turnover", oldID)
			}
			forks := s.w.Mon.Stats.SandboxForks - forksBefore
			if forkPool {
				if forks == 0 || !sl.forked {
					t.Fatalf("forks +%d, forked=%v: want a fresh fork of the template", forks, sl.forked)
				}
			} else if forks != 0 || sl.forked || s.relaunches != 1 {
				t.Fatalf("forks +%d, forked=%v, relaunches=%d: want one cold relaunch",
					forks, sl.forked, s.relaunches)
			}

			// Tenant 1 now runs on the fresh worker; finish() validates its
			// reply byte-for-byte against tenant 1's own request, so
			// completion here proves no cross-tenant bytes surfaced.
			for i := 0; !sl.done; i++ {
				if i > 100000 {
					t.Fatal("tenant 1 never completed on the relaunched slot")
				}
				mux.Reset()
				mux.Add(sl.sess.Proxy)
				mux.PumpAll(8)
				s.tick(sl)
			}
			if s.completed != 1 || s.failed != 1 {
				t.Fatalf("completed=%d failed=%d, want 1/1", s.completed, s.failed)
			}
			for _, r := range s.results {
				if r.Tenant == 1 && r.Err != "" {
					t.Fatalf("tenant 1 failed on the relaunched slot: %s", r.Err)
				}
			}
		})
	}
}

// typedErr reports whether a session failure is typed: its text ends with
// the text of a typed sentinel it wraps, or it carries a monitor denial.
func typedErr(msg string) bool {
	for _, sentinel := range []error{
		secchan.ErrTimeout, secchan.ErrQueueFull, secchan.ErrCorruptFrame,
		secchan.ErrReplay, ErrWorkerDead,
	} {
		if strings.HasSuffix(msg, sentinel.Error()) {
			return true
		}
	}
	return monitorDenial.MatchString(msg)
}

// monitorDenial matches the text of a monitor.ErrDenied.
var monitorDenial = regexp.MustCompile(`monitor: \S+ denied: `)

// TestTypedErrRejectsUntypedFailures: the fleets' typed-failure check
// accepts each failure text the serving path builds around a sentinel or a
// denial, and rejects failures that name no typed cause.
func TestTypedErrRejectsUntypedFailures(t *testing.T) {
	denial := &monitor.ErrDenied{Op: "abort-session", Reason: "sandbox 3 already holds client data"}
	for _, c := range []struct {
		err   error
		typed bool
	}{
		{fmt.Errorf("serve: handshake failed after 8 attempts (last: %v): %w", secchan.ErrCorruptFrame, secchan.ErrTimeout), true},
		{fmt.Errorf("serve: no reply after 64 rounds: %w", secchan.ErrTimeout), true},
		{fmt.Errorf("serve: reply receive: %w", secchan.ErrReplay), true},
		{fmt.Errorf("serve: worker died: %s: %w", "killed", ErrWorkerDead), true},
		{fmt.Errorf("serve: request send: harness: send failed after 8 attempts: %w", secchan.ErrQueueFull), true},
		{fmt.Errorf("serve: abort between attempts: %w", denial), true},
		{checkReply([]byte{1, 2, 3, 9}, []byte{1, 2, 3, 4}, []byte{0}), false},
		{checkReply([]byte{1}, []byte{1, 2}, []byte{0}), false},
		{fmt.Errorf("serve: request send: %s", "client: handshake not finished"), false},
		{fmt.Errorf("harness: timeout while waiting"), false},
	} {
		if got := typedErr(c.err.Error()); got != c.typed {
			t.Errorf("typedErr(%q) = %v, want %v", c.err, got, c.typed)
		}
	}
}

// TestServeChaosFleet is the chaos suite on the default config — the
// paper's cold sandbox per session, so every turnover under fault is a
// kill or EMCSandboxEnd, EMCDestroyAS and a cold launch. Seeded fault
// schedules of every class on the untrusted hop; every tenant is reported
// exactly once, completing or failing typed, faults were injected, and the
// monitor audit ends clean. TestServeForkChaosFleet runs the same suite on
// the fork pool.
func TestServeChaosFleet(t *testing.T) {
	seeds := 20
	tenants, sessions := 64, 96
	if testing.Short() {
		seeds, tenants, sessions = 5, 16, 24
	}
	for seed := 1; seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			plan := faultinject.Uniform(int64(seed), 0.05)
			s, err := New(Config{
				Tenants: tenants, Sessions: sessions, Seed: int64(seed), Chaos: &plan,
			})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Completed+rep.Failed != sessions {
				t.Fatalf("%d completed + %d failed != %d sessions",
					rep.Completed, rep.Failed, sessions)
			}
			if len(rep.Results) != sessions {
				t.Fatalf("%d results, want %d", len(rep.Results), sessions)
			}
			if rep.Forks != 0 {
				t.Fatalf("default config forked %d workers", rep.Forks)
			}
			seen := make(map[int]bool, sessions)
			for _, r := range rep.Results {
				if seen[r.Tenant] {
					t.Fatalf("tenant %d reported twice", r.Tenant)
				}
				seen[r.Tenant] = true
				if r.Err == "" && r.ReplyBytes == 0 {
					t.Fatalf("tenant %d neither failed nor replied", r.Tenant)
				}
				if r.Err != "" && !typedErr(r.Err) {
					t.Fatalf("tenant %d failed untyped: %s", r.Tenant, r.Err)
				}
			}
			if got := s.World().Inj.Counters.Total(); got == 0 {
				t.Fatal("chaos run injected no faults")
			}
			if vs := s.World().Mon.Audit(); len(vs) != 0 {
				t.Fatalf("audit violations: %v", vs)
			}
		})
	}
}

// TestServeChaosDrainsCleanly: after a chaos run the fleet is torn down —
// no slot's sandbox is still live, so no tenant's bytes can outlive its
// session (scrub-on-end at every turnover and at the final drain), and
// with every fork dead the template releases.
func TestServeChaosDrainsCleanly(t *testing.T) {
	plan := faultinject.Uniform(42, 0.08)
	s, err := New(Config{Tenants: 8, Sessions: 24, Seed: 42, Chaos: &plan, ForkPool: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed+rep.Failed != 24 {
		t.Fatalf("%d+%d sessions accounted, want 24", rep.Completed, rep.Failed)
	}
	for _, sl := range s.slots {
		info, ok := sl.c.Info()
		if ok && !info.Destroyed {
			t.Fatalf("slot %d sandbox %d still live after drain", sl.idx, sl.c.ID)
		}
	}
	if v := s.World().Mon.Audit(); len(v) != 0 {
		t.Fatalf("monitor audit violations after chaos drain: %v", v)
	}
	if err := s.ReleaseTemplate(); err != nil {
		t.Fatalf("ReleaseTemplate after chaos drain: %v", err)
	}
}

// TestServeColdSessionsRunInBoundedMemory: every turnover destroys the
// retiring worker's address space, and with it the worker's page-table
// pages and sandbox record, so the default (cold) path serves any number of
// sessions in bounded memory. A long run on a small CVM must complete every
// session and end in the same state as a run a tenth its length: the same
// free frames in the monitor pool (page-table pages), in CMA (confined
// frames) and in the general pool, and one registered sandbox per slot.
func TestServeColdSessionsRunInBoundedMemory(t *testing.T) {
	const tenants = 4
	// At 32 MiB the monitor pool holds about 330 sessions' page tables, so
	// the long run would exhaust it if turnover leaked them.
	long := 1000
	if testing.Short() {
		long = 400
	}
	type state struct{ monitorFree, cmaFree, generalFree, records int }
	run := func(sessions int) state {
		s, err := New(Config{Tenants: tenants, Sessions: sessions, Seed: 13, MemMB: 32})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Completed != sessions {
			for _, r := range rep.Results {
				if r.Err != "" {
					t.Fatalf("%d of %d sessions completed; tenant %d: %s", rep.Completed, sessions, r.Tenant, r.Err)
				}
			}
			t.Fatalf("%d of %d sessions completed", rep.Completed, sessions)
		}
		mon := s.World().Mon
		monitorPool, _ := s.World().Phys.RegionByName(monitor.RegionMonitor)
		cma, _ := s.World().Phys.RegionByName(monitor.RegionCMA)
		st := state{monitorFree: monitorPool.Free(), cmaFree: cma.Free(), generalFree: s.World().Phys.FreeFrames()}
		var last monitor.SandboxID
		for _, sl := range s.slots {
			last = max(last, sl.c.ID)
		}
		for id := monitor.SandboxID(1); id <= last; id++ {
			if _, ok := mon.SandboxInfo(id); ok {
				st.records++
			}
		}
		return st
	}
	short, end := run(long/10), run(long)
	if end != short {
		t.Fatalf("after %d sessions: %+v; after %d: %+v — state grows with run length",
			long/10, short, long, end)
	}
	if end.records != tenants {
		t.Fatalf("%d sandbox records registered after the run, want %d (one per slot)", end.records, tenants)
	}
}

// TestReplyCheckCatchesFlippedByte: a reply that differs from the request
// XORed with the repeating model window in one byte fails its session, and
// the error names that byte, wherever it sits against the window: the first
// byte, either side of the first window edge, and the last byte, which lies
// in a final partial window. A session's reply is never shorter than one
// window (the window is clamped to the request size), so a reply shorter
// than one window is checked through checkReply alone, as are windows
// wider than the chunk checkReply compares at once.
func TestReplyCheckCatchesFlippedByte(t *testing.T) {
	const winLen, msgLen = 300, 1000 // windows start at 0, 300, 600 and 900
	for _, k := range []int{0, winLen - 1, winLen, msgLen - 1} {
		s, err := New(Config{Tenants: 1, Sessions: 1, Seed: 5, InputBytes: msgLen, ModelBytes: winLen})
		if err != nil {
			t.Fatal(err)
		}
		flipped := false
		s.Hook = func(int) {
			// The request is sealed on the wire by now, so the worker
			// answers the original; flipping byte k of the copy finish
			// checks against leaves the reply wrong in byte k alone.
			if sl := s.slots[0]; sl.state == stWait && !flipped {
				sl.request[k] ^= 0x40
				flipped = true
			}
		}
		rep, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !flipped {
			t.Fatalf("byte %d: the session never waited for its reply", k)
		}
		want := fmt.Sprintf("serve: reply byte %d mismatch", k)
		if rep.Completed != 0 || rep.Failed != 1 || rep.Results[0].Err != want {
			t.Errorf("byte %d: completed=%d failed=%d err %q, want 0/1 %q",
				k, rep.Completed, rep.Failed, rep.Results[0].Err, want)
		}
	}

	// checkReply alone: a reply shorter than one window, and windows wider
	// than one comparison chunk, where the byte named counts the windows
	// and chunks before it (edges of the first chunk, of the window's short
	// last chunk and of the second window, and the last byte).
	const wide = 2*checkChunk + 100
	for _, c := range []struct {
		win, req int
		flips    []int
	}{
		{winLen, 100, []int{0, 99}},
		{wide, 5 * checkChunk, []int{checkChunk - 1, checkChunk, wide - 1, wide, wide + checkChunk, 5*checkChunk - 1}},
	} {
		win := make([]byte, c.win)
		req := make([]byte, c.req)
		for i := range win {
			win[i] = byte(7 * i)
		}
		for i := range req {
			req[i] = byte(3*i + 1)
		}
		reply := make([]byte, len(req))
		xorWindow(reply, req, win)
		if err := checkReply(reply, req, win); err != nil {
			t.Fatalf("%d-byte reply, %d-byte window: %v", c.req, c.win, err)
		}
		for _, k := range c.flips {
			reply[k] ^= 0x40
			want := fmt.Sprintf("serve: reply byte %d mismatch", k)
			if err := checkReply(reply, req, win); err == nil || err.Error() != want {
				t.Errorf("%d-byte reply, %d-byte window, byte %d: err %v, want %q", c.req, c.win, k, err, want)
			}
			reply[k] ^= 0x40
		}
	}
}

// TestNewRefusesUnhonorablePlans: a plan whose wire or proxy-edge rates sum
// above 1 is refused before any world boots, because the classes past the
// sum would never fire. A plan within both bounds serves.
func TestNewRefusesUnhonorablePlans(t *testing.T) {
	for _, tc := range []struct {
		plan faultinject.Plan
		want string
	}{
		{faultinject.Uniform(3, 0.25), "wire fault rates sum to 1.5, above 1"},
		{faultinject.Uniform(3, 0).WithProxyFaults(0.8, 0.4), "proxy-edge fault rates sum to 1.2"},
	} {
		plan := tc.plan
		_, err := New(Config{Tenants: 1, Sessions: 1, Seed: 3, Chaos: &plan, Egress: DefaultEgressSpec()})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("New(%+v) = %v, want an error naming %q", tc.plan, err, tc.want)
		}
	}
	plan := faultinject.Uniform(3, 0.16).WithProxyFaults(0.6, 0.3)
	s, err := New(Config{Tenants: 1, Sessions: 1, Seed: 3, Chaos: &plan, Egress: DefaultEgressSpec()})
	if err != nil {
		t.Fatalf("New refused a plan within bounds: %v", err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
