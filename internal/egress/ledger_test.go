package egress

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/audit"
	"github.com/asterisc-release/erebor-go/internal/mem"
)

// referenceAudit is the full re-decide the incremental Ledger.AuditViolations
// must agree with: every allow record, in append order, checked against the
// policy currently registered for its tenant.
func referenceAudit(records []Record, policies map[int]*Policy) []audit.Violation {
	var v []audit.Violation
	for _, rec := range records {
		if rec.Verdict != VerdictAllow {
			continue
		}
		pol := policies[rec.Tenant]
		if pol == nil {
			v = append(v, audit.Violation{
				Code: audit.EgressPolicyMissing, Frame: mem.NoFrame,
				Detail: fmt.Sprintf("frame %d to %s egressed with no policy registered for tenant %d",
					rec.Seq, rec.Dest, rec.Tenant),
			})
			continue
		}
		if dec := pol.Decide(Destination(rec.Dest)); !dec.Allowed {
			v = append(v, audit.Violation{
				Code: audit.EgressBypass, Frame: mem.NoFrame,
				Detail: fmt.Sprintf("frame %d to %s crossed the proxy (reported rule %q) but tenant %d's compiled policy denies it (%s)",
					rec.Seq, rec.Dest, rec.Rule, rec.Tenant, dec.Rule),
			})
		}
	}
	return v
}

// TestLedgerAuditRewindsOnReRegister pins the two cases a plain audit cursor
// gets wrong: records already audited must be re-decided when their
// tenant's registered policy changes afterwards.
func TestLedgerAuditRewindsOnReRegister(t *testing.T) {
	t.Run("replaced-policy", func(t *testing.T) {
		l := NewLedger()
		pol := MustParseSpec("allow client/self").CompileFor(0)
		l.Register(0, pol)
		l.Record(0, ClientDest(0), pol.Decide(ClientDest(0)))
		if v := l.AuditViolations(); v != nil {
			t.Fatalf("clean ledger audited dirty: %v", v)
		}
		// The ground truth now denies the frame that already crossed.
		l.Register(0, MustParseSpec("").CompileFor(0))
		v := l.AuditViolations()
		if len(v) != 1 || v[0].Code != audit.EgressBypass {
			t.Fatalf("audit after re-registration: %v, want one EgressBypass", v)
		}
	})
	t.Run("late-registration", func(t *testing.T) {
		l := NewLedger()
		l.Record(1, ClientDest(1), Decision{Allowed: true, Rule: SelfPattern})
		if v := l.AuditViolations(); len(v) != 1 || v[0].Code != audit.EgressPolicyMissing {
			t.Fatalf("unregistered allow: %v, want one EgressPolicyMissing", v)
		}
		// Registering a policy that allows the frame clears the violation.
		l.Register(1, MustParseSpec("allow client/self").CompileFor(1))
		if v := l.AuditViolations(); v != nil {
			t.Fatalf("stale violation after late registration: %v", v)
		}
	})
	t.Run("result-is-a-copy", func(t *testing.T) {
		l := NewLedger()
		l.Record(2, ClientDest(2), Decision{Allowed: true, Rule: "forged"})
		v := l.AuditViolations()
		v[0].Detail = "overwritten"
		if again := l.AuditViolations(); again[0].Detail == "overwritten" {
			t.Fatal("AuditViolations handed out its internal slice")
		}
	})
}

// TestLedgerAuditDifferential drives random Register/Record/InjectBypass
// sequences with interleaved audits and checks every incremental audit
// against referenceAudit over the full log.
func TestLedgerAuditDifferential(t *testing.T) {
	specs := []*Spec{
		MustParseSpec("allow client/self"),
		MustParseSpec("allow client/self; allow service/*"),
		MustParseSpec("allow peer/*"),
		MustParseSpec(""),
	}
	dests := []Destination{
		ClientDest(0), ClientDest(1), ClientDest(2),
		Dest("service", "model-registry"), Dest("peer", "exfil"), RedirectDest,
	}
	const tenants = 4
	var replaced, late, corrupt, audits int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := NewLedger()
		policies := make(map[int]*Policy)
		allowSeen := make(map[int]bool) // tenants with an allow record
		for step := 0; step < 300; step++ {
			tenant := rng.Intn(tenants)
			switch op := rng.Intn(10); {
			case op < 2:
				p := specs[rng.Intn(len(specs))].CompileFor(tenant)
				if rng.Intn(4) == 0 {
					p = p.Corrupt()
					corrupt++
				}
				if allowSeen[tenant] {
					if policies[tenant] == nil {
						late++
					} else {
						replaced++
					}
				}
				policies[tenant] = p
				l.Register(tenant, p)
			case op < 7:
				d := dests[rng.Intn(len(dests))]
				dec := policies[tenant].Decide(d)
				if rng.Intn(5) == 0 {
					dec = Decision{Allowed: true, Rule: "forged"}
				}
				allowSeen[tenant] = allowSeen[tenant] || dec.Allowed
				l.Record(tenant, d, dec)
			case op < 8:
				if rec, err := l.InjectBypass(); err == nil {
					allowSeen[rec.Tenant] = true
				}
			default:
				audits++
				got := l.AuditViolations()
				want := referenceAudit(l.Records(), policies)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: incremental audit\n  %v\nfull re-decide\n  %v", seed, step, got, want)
				}
			}
		}
		if got, want := l.AuditViolations(), referenceAudit(l.Records(), policies); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d final: incremental audit\n  %v\nfull re-decide\n  %v", seed, got, want)
		}
	}
	if replaced == 0 || late == 0 || corrupt == 0 {
		t.Fatalf("sequences missed a case: %d replaced policies, %d late registrations, %d corrupt registrations",
			replaced, late, corrupt)
	}
	t.Logf("%d audits; %d replaced, %d late, %d corrupt registrations", audits, replaced, late, corrupt)
}

// BenchmarkLedgerAudit times one I8 sweep after one more decision lands on
// a ledger holding 1k or 16k records. The ledger is rebuilt (off the clock)
// every n sweeps, so it stays between n and 2n records whatever b.N is. The
// audit only decides the new record, so the two sizes should cost the same.
func BenchmarkLedgerAudit(b *testing.B) {
	pol := MustParseSpec("allow client/self").CompileFor(0)
	dst := ClientDest(0)
	dec := pol.Decide(dst)
	filled := func(n int) *Ledger {
		l := NewLedger()
		// Room for the n appends of the timed loop: no append in it
		// reallocates, so the loop times the sweep, not slice growth.
		l.records = make([]Record, 0, 2*n)
		l.Register(0, pol)
		for i := 0; i < n; i++ {
			l.Record(0, dst, dec)
		}
		l.AuditViolations()
		return l
	}
	for _, n := range []int{1 << 10, 16 << 10} {
		b.Run(fmt.Sprintf("records=%dk", n>>10), func(b *testing.B) {
			var l *Ledger
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%n == 0 {
					b.StopTimer()
					l = filled(n)
					b.StartTimer()
				}
				l.Record(0, dst, dec)
				if v := l.AuditViolations(); v != nil {
					b.Fatalf("clean ledger audited dirty: %v", v)
				}
			}
		})
	}
}
