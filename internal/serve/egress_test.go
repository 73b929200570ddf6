package serve

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/audit"
	"github.com/asterisc-release/erebor-go/internal/egress"
	"github.com/asterisc-release/erebor-go/internal/faultinject"
	"github.com/asterisc-release/erebor-go/internal/metrics"
)

// TestEgressEnforcedFaultFree: with the stock policy and no chaos, every
// session completes, its service frame reaches the approved registry, the
// peer probe is denied with a typed frame, and the I8 audit stays clean.
func TestEgressEnforcedFaultFree(t *testing.T) {
	s, err := New(Config{
		Tenants: 4, Sessions: 8, Seed: 11,
		Egress: DefaultEgressSpec(), Watchdog: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 8 || rep.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want 8/0", rep.Completed, rep.Failed)
	}

	// Multi-service: the allowed service connection delivered once per
	// session; the peer probe never crossed.
	deliv := s.ServiceDeliveries()
	if deliv[RegistryDest.String()] != 8 {
		t.Fatalf("registry deliveries %d, want 8", deliv[RegistryDest.String()])
	}
	if deliv[ExfilDest.String()] != 0 {
		t.Fatalf("%d frames egressed to the denied peer", deliv[ExfilDest.String()])
	}

	// Every peer probe shows up as exactly one typed denial, drained back
	// toward the sandbox; nothing overflowed.
	if rep.EgressDenied != 8 {
		t.Fatalf("EgressDenied = %d, want 8 (one peer probe per session)", rep.EgressDenied)
	}
	if rep.EgressDenialsSeen != rep.EgressDenied || rep.EgressDenialDrops != 0 {
		t.Fatalf("denials seen=%d drops=%d, want %d/0",
			rep.EgressDenialsSeen, rep.EgressDenialDrops, rep.EgressDenied)
	}
	if rep.EgressAllowed == 0 {
		t.Fatal("no frames egressed at all (client lane should pass)")
	}
	for _, r := range s.Ledger().Records() {
		if r.Verdict == egress.VerdictDeny {
			if r.Dest != ExfilDest.String() || r.Rule != egress.RuleDefaultDeny {
				t.Fatalf("unexpected denial %+v", r)
			}
		}
	}

	// Clean run: the I8 sweep found nothing, and the decision metrics carry
	// the per-tenant labeled series.
	if v := s.Ledger().AuditViolations(); v != nil {
		t.Fatalf("clean run audited dirty: %v", v)
	}
	if n := s.World().Mon.WatchdogNonInjected(); n != 0 {
		t.Fatalf("watchdog flagged %d violations on a clean egress run", n)
	}
	if got := s.World().Met.Value(metrics.FamilyEgressDecisions,
		metrics.KV("tenant", "0"), metrics.KV("rule", egress.RuleDefaultDeny),
		metrics.KV("verdict", egress.VerdictDeny)); got == 0 {
		t.Fatal("egress_decisions deny series missing for tenant 0")
	}
}

// TestEgressPolicyWithoutRegistry: drop model-registry from the allowlist
// and the service connection is denied too — policy, not topology, decides.
func TestEgressPolicyWithoutRegistry(t *testing.T) {
	s, err := New(Config{
		Tenants: 2, Sessions: 2, Seed: 11,
		Egress: egress.MustParseSpec("allow client/self"),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 2 {
		t.Fatalf("completed=%d, want 2", rep.Completed)
	}
	deliv := s.ServiceDeliveries()
	if deliv[RegistryDest.String()] != 0 || deliv[ExfilDest.String()] != 0 {
		t.Fatalf("service deliveries %v, want none", deliv)
	}
	if rep.EgressDenied != 4 { // registry + peer, per session
		t.Fatalf("EgressDenied = %d, want 4", rep.EgressDenied)
	}
}

// TestEgressChaosFleet is the non-exfiltration proof: 20 seeds x 64 tenants
// x all 8 fault classes (6 wire + frame-redirect + policy-corrupt). Across
// every run: zero frames egress to non-allowlisted destinations, every
// denial is typed and accounted, sessions degrade gracefully (typed
// failure, never a hang), and the I8 watchdog never fires.
func TestEgressChaosFleet(t *testing.T) {
	seeds := 20
	tenants, sessions := 64, 96
	if testing.Short() {
		seeds, tenants, sessions = 5, 16, 24
	}
	for seed := 1; seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			plan := faultinject.Uniform(int64(seed), 0.05).WithProxyFaults(0.03, 0.02)
			s, err := New(Config{
				Tenants: tenants, Sessions: sessions, Seed: int64(seed), ForkPool: true,
				Chaos: &plan, Egress: DefaultEgressSpec(), Watchdog: true,
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

			// Non-exfiltration: nothing reached the denied peer, and every
			// allow record in the ledger re-verifies against the registered
			// policy — even with redirects and policy corruption in play.
			if n := s.ServiceDeliveries()[ExfilDest.String()]; n != 0 {
				t.Fatalf("%d frames egressed to the denied peer", n)
			}
			if v := s.Ledger().AuditViolations(); v != nil {
				t.Fatalf("I8 violations under chaos: %v", v)
			}
			if n := s.World().Mon.WatchdogNonInjected(); n != 0 {
				t.Fatalf("watchdog flagged %d violations on a clean chaos run", n)
			}

			// Every denial is typed: ledger denials are fully accounted as
			// frames drained by the sandboxes plus bounded-queue overflow.
			if rep.EgressDenied != rep.EgressDenialsSeen+rep.EgressDenialDrops {
				t.Fatalf("%d denied != %d seen + %d dropped",
					rep.EgressDenied, rep.EgressDenialsSeen, rep.EgressDenialDrops)
			}

			// The proxy classes actually fired.
			c := s.World().Inj.Snapshot()
			if c.Redirects == 0 || c.PolicyCorrupts == 0 {
				t.Fatalf("proxy faults never fired: %v", c)
			}
		})
	}
}

// TestWatchdogCatchesEgressBypass: a forged frame-crossing (the I8 alias
// break) injected mid-run is reported by the next sweep as a typed,
// announced egress-bypass event — and an unannounced forgery trips the
// non-injected gate.
func TestWatchdogCatchesEgressBypass(t *testing.T) {
	const every = 50_000
	s, err := New(Config{
		Tenants: 2, Sessions: 4, Seed: 3,
		Egress: DefaultEgressSpec(), Watchdog: true, WatchdogEvery: every,
	})
	if err != nil {
		t.Fatal(err)
	}
	mon := s.World().Mon
	var injectedAt, sweepsAtInject uint64
	s.Hook = func(round int) {
		if round != 3 || injectedAt != 0 {
			return
		}
		code, ierr := mon.InjectEgressBypass()
		if ierr != nil {
			t.Fatalf("inject: %v", ierr)
		}
		if code != audit.EgressBypass {
			t.Fatalf("injected code %v, want %v", code, audit.EgressBypass)
		}
		injectedAt = s.World().M.Clock.Now()
		sweepsAtInject = mon.WatchdogSweeps()
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if injectedAt == 0 {
		t.Fatal("hook never fired: run finished before round 3")
	}

	events := mon.WatchdogEvents()
	if len(events) == 0 {
		t.Fatal("watchdog observed no events after an injected bypass")
	}
	first := events[0]
	if first.Code != audit.EgressBypass.String() {
		t.Fatalf("first event code %q, want %q", first.Code, audit.EgressBypass)
	}
	if first.Invariant != "I8" {
		t.Fatalf("first event invariant %q, want I8", first.Invariant)
	}
	if first.Severity != "injected" {
		t.Fatalf("first event severity %q, want injected (announced break)", first.Severity)
	}
	// The first sweep after the forgery must observe it.
	log := mon.WatchdogSweepLog()
	if uint64(len(log)) <= sweepsAtInject {
		t.Fatal("no sweeps ran after injection")
	}
	if firstSweep := log[sweepsAtInject]; firstSweep.Violations == 0 {
		t.Fatalf("first post-injection sweep (%s @%d) observed no violations",
			firstSweep.Trigger, firstSweep.Cycles)
	}
	if n := mon.WatchdogNonInjected(); n != 0 {
		t.Fatalf("non-injected count %d for an announced break", n)
	}

	// The same forgery without the announcement is exactly what the CI
	// health gate exists to catch.
	s2, err := New(Config{
		Tenants: 2, Sessions: 4, Seed: 3,
		Egress: DefaultEgressSpec(), Watchdog: true, WatchdogEvery: every,
	})
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	s2.Hook = func(round int) {
		if round != 3 || fired {
			return
		}
		fired = true
		s2.Ledger().Record(0, ExfilDest, egress.Decision{Allowed: true, Rule: "forged"})
	}
	if _, err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("hook never fired")
	}
	if n := s2.World().Mon.WatchdogNonInjected(); n == 0 {
		t.Fatal("unannounced bypass did not trip the non-injected gate")
	}
}

// TestEgressStatusz: the status snapshot carries the policy table and the
// status page renders it.
func TestEgressStatusz(t *testing.T) {
	s, err := New(Config{
		Tenants: 2, Sessions: 2, Seed: 7,
		Egress: DefaultEgressSpec(), Watchdog: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	st := s.Status(rep)
	if st.Egress == nil {
		t.Fatal("egress run produced no egress status")
	}
	if st.Egress.Spec != "allow client/self; allow service/model-registry" {
		t.Fatalf("spec %q", st.Egress.Spec)
	}
	if st.Egress.Denied == 0 || len(st.Egress.Decisions) == 0 {
		t.Fatalf("empty decision table: %+v", st.Egress)
	}
	var page bytes.Buffer
	st.WriteText(&page)
	for _, want := range []string{"egress policy: allow client/self", "default-deny", "deny"} {
		if !bytes.Contains(page.Bytes(), []byte(want)) {
			t.Fatalf("status page missing %q:\n%s", want, page.String())
		}
	}
	// Disarmed runs keep the legacy page.
	s2, err := New(Config{Tenants: 1, Sessions: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := s2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st2 := s2.Status(rep2); st2.Egress != nil {
		t.Fatal("disarmed run grew an egress status")
	}
}

// TestEgressDeterminism: identically-configured egress runs — proxy fault
// classes armed — produce byte-identical reports and byte-identical egress
// decision JSONL exports (the CI determinism gate).
func TestEgressDeterminism(t *testing.T) {
	run := func() (*Report, []byte, error) {
		plan := faultinject.Uniform(0, 0).WithProxyFaults(0.05, 0.03)
		s, err := New(Config{
			Tenants: 4, Sessions: 8, Seed: 21,
			Chaos: &plan, Egress: DefaultEgressSpec(), Watchdog: true,
		})
		if err != nil {
			return nil, nil, err
		}
		rep, err := s.Run()
		if err != nil {
			return nil, nil, err
		}
		var jl bytes.Buffer
		if err := s.ExportEgressJSONL(&jl); err != nil {
			return nil, nil, err
		}
		return rep, jl.Bytes(), nil
	}
	rep1, jl1, err := run()
	if err != nil {
		t.Fatal(err)
	}
	rep2, jl2, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rep1.JSON(), rep2.JSON()) {
		t.Fatalf("reports diverge:\n%s\n---\n%s", rep1.JSON(), rep2.JSON())
	}
	if !bytes.Equal(jl1, jl2) {
		t.Fatal("egress JSONL exports diverge between identical seeds")
	}
	if len(jl1) == 0 {
		t.Fatal("egress JSONL export empty")
	}
}
