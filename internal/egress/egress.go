// Package egress is the per-tenant, deny-by-default egress policy engine
// for the untrusted proxy path (DESIGN.md §13). The threat model (§3) makes
// the in-CVM OS — and therefore the proxy relaying sandbox traffic —
// adversarial: a compromised sandbox or a fault-corrupted proxy must not be
// able to exfiltrate to an arbitrary destination. Real sandbox gates are
// only as strong as the reference monitor on their egress edge, so every
// frame leaving a lane is labeled with a typed destination and checked
// against an immutable per-session policy compiled at admission.
//
// Design rules:
//
//   - Deny by default. A destination matches an allowlist rule or the frame
//     does not egress; there is no deny-rule vocabulary to get wrong.
//   - Immutable per-session policies. A Policy is compiled once at session
//     admission and never mutated; the compiled form carries a checksum so
//     a corrupted policy load (chaos class "policy-corrupt") fails closed —
//     every decision degrades to deny — rather than failing open.
//   - Denials are not drops. The enforcement point (secchan.Proxy) emits a
//     typed FrameEgressDenied back toward the sandbox through a bounded
//     queue, records the decision in the metrics registry and the flight
//     recorder, and appends it to the Ledger the I8 watchdog sweeps.
//   - Pure and clock-free. Deciding never touches the virtual clock and
//     draws no randomness, so policy-enforced runs stay cycle- and
//     byte-deterministic per seed.
package egress

import (
	"crypto/sha256"
	"fmt"
	"strconv"
	"strings"
)

// Destination is a typed egress destination label, "class/name": e.g.
// "client/tenant-3", "service/model-registry", "peer/exfil". The class
// partitions the namespace so wildcard rules cannot accidentally span
// categories ("service/*" never matches a peer).
type Destination string

// Dest builds a destination label from its class and name.
func Dest(class, name string) Destination {
	return Destination(class + "/" + name)
}

// ClientDest is the canonical destination of tenant t's own remote client.
func ClientDest(tenant int) Destination {
	return Dest("client", fmt.Sprintf("tenant-%d", tenant))
}

// RedirectDest is where the frame-redirect chaos class tries to steer an
// egress frame: a host-controlled destination no sane policy allowlists.
var RedirectDest = Dest("host", "redirect-target")

// String returns the label text.
func (d Destination) String() string { return string(d) }

// SelfPattern is the spec pattern that expands, at compile time, to the
// session tenant's own client destination. It lets one fleet-wide spec
// yield per-tenant policies: tenant 3's compiled policy allows
// client/tenant-3 and nobody else's client.
const SelfPattern = "client/self"

// Rule labels used for decisions no allowlist rule produced.
const (
	// RuleDefaultDeny labels the deny-by-default verdict: no rule matched.
	RuleDefaultDeny = "default-deny"
	// RuleCorrupt labels the fail-closed verdict of a policy whose compiled
	// form no longer matches its checksum (policy-load corruption).
	RuleCorrupt = "policy-corrupt"
)

// Spec is a parsed, uncompiled egress policy: an ordered allowlist of
// destination patterns shared by the whole fleet. CompileFor specializes it
// into one tenant's immutable Policy.
type Spec struct {
	// Allow is the ordered list of allowlist patterns (first match wins).
	Allow []string
}

// ParseSpec parses a policy spec string: allowlist patterns separated by
// ';' or ',', each optionally prefixed with "allow". Patterns are either
// exact labels ("service/model-registry"), trailing-wildcard prefixes
// ("service/model-*", "client/*"), or the per-tenant SelfPattern. An empty
// spec is valid and denies everything (deny-by-default with no exceptions).
func ParseSpec(s string) (*Spec, error) {
	sp := &Spec{}
	for _, raw := range strings.FieldsFunc(s, func(r rune) bool { return r == ';' || r == ',' }) {
		pat := strings.TrimSpace(raw)
		pat = strings.TrimSpace(strings.TrimPrefix(pat, "allow "))
		if pat == "" {
			continue
		}
		if err := checkPattern(pat); err != nil {
			return nil, err
		}
		sp.Allow = append(sp.Allow, pat)
	}
	return sp, nil
}

// MustParseSpec is ParseSpec for compile-time-constant specs (tests, CLI
// defaults); it panics on a malformed spec.
func MustParseSpec(s string) *Spec {
	sp, err := ParseSpec(s)
	if err != nil {
		panic(err)
	}
	return sp
}

// checkPattern validates one allowlist pattern.
func checkPattern(pat string) error {
	if !strings.Contains(pat, "/") {
		return fmt.Errorf("egress: pattern %q has no class (want class/name)", pat)
	}
	if i := strings.IndexByte(pat, '*'); i >= 0 && i != len(pat)-1 {
		return fmt.Errorf("egress: pattern %q: '*' is only valid as a trailing wildcard", pat)
	}
	if strings.HasPrefix(pat, "*") {
		return fmt.Errorf("egress: pattern %q: class may not be wildcarded", pat)
	}
	return nil
}

// String renders the spec back to its canonical text form.
func (sp *Spec) String() string {
	if sp == nil || len(sp.Allow) == 0 {
		return "(deny all)"
	}
	parts := make([]string, len(sp.Allow))
	for i, p := range sp.Allow {
		parts[i] = "allow " + p
	}
	return strings.Join(parts, "; ")
}

// compiledRule is one allowlist entry specialized for a tenant.
type compiledRule struct {
	// label is the original spec pattern (metrics/denial rule label).
	label string
	// exact, when prefix is empty, must equal the destination verbatim.
	exact string
	// prefix, when non-empty, matches any destination it prefixes.
	prefix string
}

func (r compiledRule) matches(d Destination) bool {
	if r.prefix != "" {
		return strings.HasPrefix(string(d), r.prefix)
	}
	return string(d) == r.exact
}

// Policy is one session's compiled, immutable egress policy. It is built
// exactly once at session admission and shared read-only between the
// enforcement point and the I8 auditor; nothing mutates it afterwards.
type Policy struct {
	tenant int
	rules  []compiledRule
	// sum seals the compiled rule table: Decide re-derives it on every
	// check and fails closed on mismatch, so a corrupted policy load can
	// only ever deny more, never allow more.
	sum  [sha256.Size]byte
	spec string
}

// CompileFor specializes the spec into tenant's immutable policy:
// SelfPattern expands to the tenant's own client destination, wildcards
// compile to prefix matchers, and the rule table is checksummed.
func (sp *Spec) CompileFor(tenant int) *Policy {
	p := &Policy{tenant: tenant, spec: sp.String()}
	for _, pat := range sp.Allow {
		r := compiledRule{label: pat}
		expanded := pat
		if pat == SelfPattern {
			expanded = string(ClientDest(tenant))
		}
		if strings.HasSuffix(expanded, "*") {
			r.prefix = strings.TrimSuffix(expanded, "*")
		} else {
			r.exact = expanded
		}
		p.rules = append(p.rules, r)
	}
	p.sum = p.checksum()
	return p
}

// checksum digests the compiled rule table: "tenant=<t>\n", then
// "label\x00exact\x00prefix\n" per rule. Decide calls it on every check,
// so it builds the digest input in one buffer instead of going through fmt.
func (p *Policy) checksum() [sha256.Size]byte {
	buf := make([]byte, 0, 256)
	buf = append(buf, "tenant="...)
	buf = strconv.AppendInt(buf, int64(p.tenant), 10)
	buf = append(buf, '\n')
	for _, r := range p.rules {
		buf = append(buf, r.label...)
		buf = append(buf, 0)
		buf = append(buf, r.exact...)
		buf = append(buf, 0)
		buf = append(buf, r.prefix...)
		buf = append(buf, '\n')
	}
	return sha256.Sum256(buf)
}

// Intact reports whether the compiled rule table still matches the seal
// computed at compile time.
func (p *Policy) Intact() bool { return p.checksum() == p.sum }

// Tenant returns the tenant the policy was compiled for.
func (p *Policy) Tenant() int { return p.tenant }

// Spec returns the canonical text of the spec the policy was compiled from.
func (p *Policy) Spec() string { return p.spec }

// Verdict values of a Decision (metrics label values).
const (
	VerdictAllow = "allow"
	VerdictDeny  = "deny"
)

// Decision is the outcome of one egress check.
type Decision struct {
	// Allowed reports whether the frame may egress.
	Allowed bool
	// Rule is the allowlist pattern that matched, or RuleDefaultDeny /
	// RuleCorrupt for denials.
	Rule string
}

// Verdict renders the decision as a metrics label value.
func (d Decision) Verdict() string {
	if d.Allowed {
		return VerdictAllow
	}
	return VerdictDeny
}

// Decide checks one destination against the policy: first matching
// allowlist rule wins, anything unmatched is denied. A nil policy denies
// everything (enforcement points must never fail open on missing wiring),
// and a policy whose seal no longer verifies denies everything with
// RuleCorrupt.
func (p *Policy) Decide(d Destination) Decision {
	if p == nil {
		return Decision{Allowed: false, Rule: RuleDefaultDeny}
	}
	if !p.Intact() {
		return Decision{Allowed: false, Rule: RuleCorrupt}
	}
	for _, r := range p.rules {
		if r.matches(d) {
			return Decision{Allowed: true, Rule: r.label}
		}
	}
	return Decision{Allowed: false, Rule: RuleDefaultDeny}
}

// Corrupt returns a tampered copy of the policy — one compiled rule's
// matcher bytes flipped while the recorded seal is kept — modeling a
// policy-load corruption in the untrusted proxy. Decide on the copy fails
// closed (every destination denied with RuleCorrupt). The receiver is
// never modified. A policy with no rules corrupts its seal instead.
func (p *Policy) Corrupt() *Policy {
	cp := &Policy{tenant: p.tenant, sum: p.sum, spec: p.spec}
	cp.rules = append([]compiledRule(nil), p.rules...)
	if len(cp.rules) > 0 {
		r := cp.rules[0]
		if r.prefix != "" {
			r.prefix = flipByte(r.prefix)
		} else {
			r.exact = flipByte(r.exact)
		}
		cp.rules[0] = r
	} else {
		cp.sum[0] ^= 0xFF
	}
	return cp
}

// flipByte flips the low bit of the first byte of s ("corrupting" it
// deterministically; an empty string grows a poison byte).
func flipByte(s string) string {
	if s == "" {
		return "\x01"
	}
	b := []byte(s)
	b[0] ^= 0x01
	return string(b)
}

// FrameEgressDenied is the typed denial the proxy emits back toward the
// sandbox instead of silently dropping a disallowed frame. It is queued on
// the lane's bounded denial queue (backpressure-aware: a sandbox spamming
// denied destinations overflows its own queue, never another lane's).
type FrameEgressDenied struct {
	// Tenant is the session's tenant index.
	Tenant int `json:"tenant"`
	// Dest is the destination label the frame was bound for.
	Dest string `json:"dest"`
	// Rule is the denying rule label (RuleDefaultDeny, RuleCorrupt, ...).
	Rule string `json:"rule"`
	// Seq is the per-lane denial ordinal (1-based), so a sandbox can detect
	// gaps when its denial queue overflowed.
	Seq uint64 `json:"seq"`
}

// String renders the denial for logs and test failures.
func (f FrameEgressDenied) String() string {
	return fmt.Sprintf("egress-denied #%d tenant %d -> %s (rule %s)", f.Seq, f.Tenant, f.Dest, f.Rule)
}
