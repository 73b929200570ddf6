package secchan

import (
	"fmt"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/egress"
	"github.com/asterisc-release/erebor-go/internal/metrics"
)

// lane builds one policed proxy lane: the sandbox side feeds frames in via
// inner, and whatever the policy lets through lands on outer's far end.
func lane(tenant int, spec string) (pr *Proxy, sandbox, world *MemPipe) {
	world, proxyOuter := NewMemPipe()
	proxyInner, sandbox := NewMemPipe()
	pr = &Proxy{
		Outer: proxyOuter, Inner: proxyInner,
		Policy:  egress.MustParseSpec(spec).CompileFor(tenant),
		Dest:    egress.ClientDest(tenant),
		Tenant:  tenant,
		Denials: NewDenialQueue(0),
		Ledger:  egress.NewLedger(),
	}
	pr.Ledger.Register(tenant, pr.Policy)
	return pr, sandbox, world
}

func TestProxyEnforcesAllowlist(t *testing.T) {
	pr, sandbox, world := lane(3, "allow client/self")

	// An egress frame bound for the tenant's own client passes.
	_ = sandbox.Send([]byte("to-my-client"))
	pr.PumpOnce()
	if f, err := world.Recv(); err != nil || string(f) != "to-my-client" {
		t.Fatalf("allowed frame did not egress: %q, %v", f, err)
	}
	if pr.Forwarded != 1 || pr.Denied != 0 {
		t.Fatalf("stats after allow: %+v", pr.Stats())
	}

	// Re-aim the lane at a peer: deny-by-default withholds the frame and
	// queues a typed denial instead.
	pr.Dest = egress.Dest("peer", "exfil")
	_ = sandbox.Send([]byte("exfiltrate-me"))
	pr.PumpOnce()
	if _, err := world.Recv(); err == nil {
		t.Fatal("denied frame crossed the proxy")
	}
	if pr.Denied != 1 {
		t.Fatalf("Denied = %d, want 1", pr.Denied)
	}
	den, ok := pr.Denials.Pop()
	if !ok {
		t.Fatal("no typed denial queued")
	}
	if den.Tenant != 3 || den.Dest != "peer/exfil" || den.Rule != egress.RuleDefaultDeny || den.Seq != 1 {
		t.Fatalf("denial frame %+v", den)
	}

	// The ledger recorded both decisions in order.
	recs := pr.Ledger.Records()
	if len(recs) != 2 || recs[0].Verdict != egress.VerdictAllow || recs[1].Verdict != egress.VerdictDeny {
		t.Fatalf("ledger %+v", recs)
	}
	if v := pr.Ledger.AuditViolations(); v != nil {
		t.Fatalf("honest lane audited dirty: %v", v)
	}
}

func TestProxyNilPolicyIsLegacyRelay(t *testing.T) {
	world, proxyOuter := NewMemPipe()
	proxyInner, sandbox := NewMemPipe()
	pr := &Proxy{Outer: proxyOuter, Inner: proxyInner}
	_ = sandbox.Send([]byte("anything"))
	_ = world.Send([]byte("inbound"))
	pr.PumpOnce()
	if f, err := world.Recv(); err != nil || string(f) != "anything" {
		t.Fatalf("unpoliced egress blocked: %q, %v", f, err)
	}
	if f, err := sandbox.Recv(); err != nil || string(f) != "inbound" {
		t.Fatalf("ingress blocked: %q, %v", f, err)
	}
	if pr.Forwarded != 2 {
		t.Fatalf("Forwarded = %d, want 2", pr.Forwarded)
	}
}

func TestProxyIngressNeverPoliced(t *testing.T) {
	pr, sandbox, world := lane(0, "") // deny-all policy
	_ = world.Send([]byte("request"))
	pr.PumpOnce()
	if f, err := sandbox.Recv(); err != nil || string(f) != "request" {
		t.Fatalf("deny-all policy blocked ingress: %q, %v", f, err)
	}
}

func TestProxyCountersInRegistry(t *testing.T) {
	pr, sandbox, world := lane(1, "allow client/self")
	pr.Met = metrics.New()
	_ = world.Send([]byte("in"))
	_ = sandbox.Send([]byte("out"))
	pr.PumpOnce()
	pr.Dest = egress.Dest("peer", "x")
	_ = sandbox.Send([]byte("blocked"))
	pr.PumpOnce()

	get := func(dir, outcome string) uint64 {
		return pr.Met.Value(metrics.FamilyProxyFrames,
			metrics.KV("dir", dir), metrics.KV("outcome", outcome))
	}
	if get("ingress", "forwarded") != 1 || get("egress", "forwarded") != 1 || get("egress", "denied") != 1 {
		t.Fatalf("proxy frame series wrong: ingress/fwd=%d egress/fwd=%d egress/denied=%d",
			get("ingress", "forwarded"), get("egress", "forwarded"), get("egress", "denied"))
	}
	if v := pr.Met.Value(metrics.FamilyEgressDecisions,
		metrics.KV("tenant", "1"), metrics.KV("rule", egress.RuleDefaultDeny),
		metrics.KV("verdict", egress.VerdictDeny)); v != 1 {
		t.Fatalf("egress_decisions deny series = %v, want 1", v)
	}
}

func TestProxyRedirectFaultDenied(t *testing.T) {
	pr, sandbox, world := lane(2, "allow client/self")
	pr.FaultFn = func() EgressFault { return EgressFaultRedirect }
	_ = sandbox.Send([]byte("redirected"))
	pr.PumpOnce()
	if _, err := world.Recv(); err == nil {
		t.Fatal("redirected frame egressed")
	}
	den, ok := pr.Denials.Pop()
	if !ok || den.Dest != egress.RedirectDest.String() {
		t.Fatalf("denial %+v, ok=%v; want redirect-target deny", den, ok)
	}
	if v := pr.Ledger.AuditViolations(); v != nil {
		t.Fatalf("denied redirect audited dirty: %v", v)
	}
}

func TestProxyPolicyCorruptFailsClosed(t *testing.T) {
	pr, sandbox, world := lane(4, "allow client/self")
	fire := true
	pr.FaultFn = func() EgressFault {
		if fire {
			fire = false
			return EgressFaultPolicyCorrupt
		}
		return EgressFaultNone
	}
	// First frame corrupts the loaded policy; this and every later frame —
	// even ones the intact policy allows — deny with the corrupt rule.
	for i := 0; i < 3; i++ {
		_ = sandbox.Send([]byte(fmt.Sprintf("f%d", i)))
		pr.PumpOnce()
	}
	if _, err := world.Recv(); err == nil {
		t.Fatal("frame egressed through a corrupted policy")
	}
	if pr.Denied != 3 {
		t.Fatalf("Denied = %d, want 3", pr.Denied)
	}
	for i := 0; i < 3; i++ {
		den, ok := pr.Denials.Pop()
		if !ok || den.Rule != egress.RuleCorrupt {
			t.Fatalf("denial %d: %+v, ok=%v; want policy-corrupt", i, den, ok)
		}
	}
}

func TestDenialQueueBackpressure(t *testing.T) {
	q := NewDenialQueue(2)
	if err := q.Push(egress.FrameEgressDenied{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(egress.FrameEgressDenied{Seq: 2}); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(egress.FrameEgressDenied{Seq: 3}); err != ErrQueueFull {
		t.Fatalf("overflow push: %v, want ErrQueueFull", err)
	}
	if q.Len() != 2 || q.Drops() != 1 {
		t.Fatalf("len=%d drops=%d, want 2/1", q.Len(), q.Drops())
	}
	if d, ok := q.Pop(); !ok || d.Seq != 1 {
		t.Fatalf("pop %+v, ok=%v; want seq 1 first", d, ok)
	}
}

// TestDenialBackpressureDoesNotStallOtherLanes is the satellite-4 claim: a
// sandbox spamming denied destinations overflows its own denial queue
// (ErrQueueFull accounting on that lane) while a well-behaved tenant in the
// same MuxProxy round keeps full throughput.
func TestDenialBackpressureDoesNotStallOtherLanes(t *testing.T) {
	spammer, spamBox, spamWorld := lane(0, "allow client/self")
	spammer.Dest = egress.Dest("peer", "exfil") // everything it sends is denied
	good, goodBox, goodWorld := lane(1, "allow client/self")

	var mux MuxProxy
	mux.Add(spammer)
	mux.Add(good)

	const n = DefaultDenialQueueCap * 3
	for i := 0; i < n; i++ {
		_ = spamBox.Send([]byte(fmt.Sprintf("spam-%04d", i)))
		_ = goodBox.Send([]byte(fmt.Sprintf("good-%04d", i)))
	}
	mux.PumpAll(n + 8)

	// The spammer hit backpressure on its own denial queue...
	if spammer.Denials.Drops() == 0 {
		t.Fatal("spammer never hit ErrQueueFull on its denial queue")
	}
	if spammer.Denials.Len() != DefaultDenialQueueCap {
		t.Fatalf("denial queue holds %d, want cap %d", spammer.Denials.Len(), DefaultDenialQueueCap)
	}
	if _, err := spamWorld.Recv(); err == nil {
		t.Fatal("a spammed frame egressed")
	}
	// ...while the good tenant's lane delivered every frame, in order.
	for i := 0; i < n; i++ {
		f, err := goodWorld.Recv()
		if err != nil || string(f) != fmt.Sprintf("good-%04d", i) {
			t.Fatalf("good lane frame %d: %q, %v", i, f, err)
		}
	}
	if good.Denied != 0 || good.Stats().DenialDrops != 0 {
		t.Fatalf("good lane collected denials: %+v", good.Stats())
	}
}

// TestMuxProxyResetReleasesLanes is the satellite-1 regression test: Reset
// must nil the backing-array slots so dead lanes (and their Seen capture
// buffers) become collectable instead of staying reachable through the
// mux's retained capacity.
func TestMuxProxyResetReleasesLanes(t *testing.T) {
	var mux MuxProxy
	a, b := NewMemPipe()
	pr := &Proxy{Outer: a, Inner: b}
	mux.Add(pr)
	mux.Add(&Proxy{Outer: a, Inner: b})

	backing := mux.lanes[:cap(mux.lanes)]
	mux.Reset()
	if len(mux.lanes) != 0 {
		t.Fatalf("%d lanes after Reset", len(mux.lanes))
	}
	for i, p := range backing {
		if p != nil {
			t.Fatalf("Reset retained lane pointer in backing slot %d", i)
		}
	}
	// The mux is reusable after Reset.
	mux.Add(pr)
	if len(mux.lanes) != 1 {
		t.Fatalf("%d lanes after re-Add", len(mux.lanes))
	}
}
