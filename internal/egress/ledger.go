package egress

import (
	"fmt"
	"io"
	"sync"

	"github.com/asterisc-release/erebor-go/internal/audit"
	"github.com/asterisc-release/erebor-go/internal/mem"
)

// Ledger is the reference-monitor side of egress enforcement: the ground
// truth the I8 watchdog sweeps. Policies compiled at session admission are
// registered here, and the enforcement point appends one Record per egress
// decision. An audit re-evaluates every allowed record against the
// *registered* policy — not whatever policy object the untrusted proxy
// claims to have consulted — so a compromised or corrupted proxy that
// forwards a frame its tenant's compiled allowlist denies is caught as an
// I8 EgressBypass even though the proxy itself reported "allow".
//
// The ledger is append-only and deterministic: records land in pump order,
// which is a pure function of the seed, so the JSONL export is
// byte-identical across identically-seeded runs.
//
// Auditing is incremental. A record's verdict depends only on the policy
// registered for its tenant, and policies are immutable, so each audit
// decides just the records appended since the previous one and keeps the
// violations found so far. Register rewinds that cache when it changes the
// policy of a tenant whose allow records were already audited.
type Ledger struct {
	mu       sync.Mutex
	records  []Record
	policies map[int]*Policy
	allowed  uint64
	denied   uint64

	// audited is the audit cursor: records[:audited] are decided and their
	// violations sit in violations, in append order.
	audited    int
	violations []audit.Violation
	// auditedAllow holds the tenants with an allow record in
	// records[:audited]: re-registering one of them invalidates the cache.
	auditedAllow map[int]bool
}

// Record is one egress decision as observed at the proxy edge.
type Record struct {
	// Seq is the 1-based append ordinal.
	Seq uint64 `json:"seq"`
	// Tenant is the lane's tenant index.
	Tenant int `json:"tenant"`
	// Dest is the destination the frame was bound for.
	Dest string `json:"dest"`
	// Rule is the rule label the enforcement point reported.
	Rule string `json:"rule"`
	// Verdict is VerdictAllow or VerdictDeny.
	Verdict string `json:"verdict"`
	// Injected marks records forged by InjectBypass (chaos campaigns).
	Injected bool `json:"injected,omitempty"`
}

// NewLedger builds an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{policies: make(map[int]*Policy), auditedAllow: make(map[int]bool)}
}

// Register installs tenant's compiled policy as the audit ground truth.
// Called once per session at admission; re-registering (slot turnover to a
// new tenant) is expected. Changing the policy of a tenant with audited
// allow records — a replaced policy, or a first registration after an
// egress-policy-missing record — rewinds the audit so the next
// AuditViolations re-decides the whole log.
func (l *Ledger) Register(tenant int, p *Policy) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.policies[tenant] != p && l.auditedAllow[tenant] {
		l.audited = 0
		l.violations = nil
		clear(l.auditedAllow)
	}
	l.policies[tenant] = p
}

// Record appends one decision. Nil-safe so unwired lanes cost nothing.
func (l *Ledger) Record(tenant int, d Destination, dec Decision) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if dec.Allowed {
		l.allowed++
	} else {
		l.denied++
	}
	l.records = append(l.records, Record{
		Seq: uint64(len(l.records) + 1), Tenant: tenant,
		Dest: string(d), Rule: dec.Rule, Verdict: dec.Verdict(),
	})
}

// Counts reports the allow/deny totals.
func (l *Ledger) Counts() (allowed, denied uint64) {
	if l == nil {
		return 0, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.allowed, l.denied
}

// Records snapshots the decision log in append order.
func (l *Ledger) Records() []Record {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Record, len(l.records))
	copy(out, l.records)
	return out
}

// InjectBypass is an adversary hook for the I8 tests here and, through
// Monitor.InjectEgressBypass, in the watchdog. It forges an allowed-verdict
// record for a destination the registered policy denies — the
// frame-crossed-the-proxy alias break the I8 watchdog must catch. It picks
// the lowest registered tenant whose policy actually denies the probe
// destination, so the forgery is guaranteed to be a real bypass under the
// ground truth. Returns the forged record.
func (l *Ledger) InjectBypass() (Record, error) {
	if l == nil {
		return Record{}, fmt.Errorf("egress: no ledger")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	probe := Dest("peer", "injected-bypass")
	tenant, found := 0, false
	for t, p := range l.policies {
		if p.Decide(probe).Allowed {
			continue
		}
		if !found || t < tenant {
			tenant, found = t, true
		}
	}
	if !found {
		return Record{}, fmt.Errorf("egress: no registered policy denies %s", probe)
	}
	l.allowed++
	rec := Record{
		Seq: uint64(len(l.records) + 1), Tenant: tenant,
		Dest: string(probe), Rule: "injected-bypass", Verdict: VerdictAllow,
		Injected: true,
	}
	l.records = append(l.records, rec)
	return rec, nil
}

// AuditViolations checks every allowed record against the registered
// policies and returns a typed I8 violation for each frame that crossed the
// proxy to a destination outside its tenant's compiled allowlist (plus one
// for any allowed frame whose tenant has no registered policy at all).
// Clean runs — enforcement consulted the same policy the ledger holds —
// return nil. Order follows the append order, so watchdog output stays
// byte-deterministic. Only records appended since the previous call are
// decided; the result is a copy of every violation found so far.
func (l *Ledger) AuditViolations() []audit.Violation {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, rec := range l.records[l.audited:] {
		if rec.Verdict != VerdictAllow {
			continue
		}
		l.auditedAllow[rec.Tenant] = true
		pol := l.policies[rec.Tenant]
		if pol == nil {
			l.violations = append(l.violations, audit.Violation{
				Code: audit.EgressPolicyMissing, Frame: mem.NoFrame,
				Detail: fmt.Sprintf("frame %d to %s egressed with no policy registered for tenant %d",
					rec.Seq, rec.Dest, rec.Tenant),
			})
			continue
		}
		if dec := pol.Decide(Destination(rec.Dest)); !dec.Allowed {
			l.violations = append(l.violations, audit.Violation{
				Code: audit.EgressBypass, Frame: mem.NoFrame,
				Detail: fmt.Sprintf("frame %d to %s crossed the proxy (reported rule %q) but tenant %d's compiled policy denies it (%s)",
					rec.Seq, rec.Dest, rec.Rule, rec.Tenant, dec.Rule),
			})
		}
	}
	l.audited = len(l.records)
	if len(l.violations) == 0 {
		return nil
	}
	return append([]audit.Violation(nil), l.violations...)
}

// ExportJSONL writes the decision log as JSON Lines in append order. The
// encoding is hand-rolled so field order and escaping are fixed: two
// identically-seeded runs export byte-identical logs (the CI determinism
// gate diffs them directly).
func (l *Ledger) ExportJSONL(w io.Writer) error {
	for _, rec := range l.Records() {
		inj := ""
		if rec.Injected {
			inj = ",\"injected\":true"
		}
		_, err := fmt.Fprintf(w,
			"{\"seq\":%d,\"tenant\":%d,\"dest\":%q,\"rule\":%q,\"verdict\":%q%s}\n",
			rec.Seq, rec.Tenant, rec.Dest, rec.Rule, rec.Verdict, inj)
		if err != nil {
			return err
		}
	}
	return nil
}
