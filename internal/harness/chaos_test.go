package harness

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/faultinject"
	"github.com/asterisc-release/erebor-go/internal/kernel"
	"github.com/asterisc-release/erebor-go/internal/libos"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/sandbox"
	"github.com/asterisc-release/erebor-go/internal/secchan"
)

// The chaos suite: randomized fault schedules against the full session
// path (attested handshake + padded encrypted records + untrusted relay).
// Required invariants, per seeded session:
//
//  1. the session completes, or fails with a typed error (secchan.ErrTimeout
//     et al.) — it never hangs and never panics;
//  2. the untrusted relay observes ciphertext only, faults or not;
//  3. the schedule is fully deterministic from the plan's seed.

// chaosEchoMain is the service under test: receive one message, uppercase
// it, reply — then linger on the channel so duplicate (retransmitted)
// requests can still trigger response retransmission before session end.
func chaosEchoMain(c *sandbox.Container, os *libos.OS) {
	buf, n, err := os.ReceiveInput(4096, 64)
	if err != nil || n == 0 {
		return
	}
	data := make([]byte, n)
	os.Env.ReadMem(buf, data)
	if err := os.SendOutputBytes(bytes.ToUpper(data)); err != nil {
		return
	}
	// Linger: every receive attempt pumps the channel, so a client retrying
	// a lost response is served from the monitor's retransmission history.
	os.ReceiveInput(4096, 48)
	os.EndSession()
}

func launchChaosEcho(t *testing.T, w *World) *sandbox.Container {
	t.Helper()
	c, err := sandbox.Launch(w.K, sandbox.Spec{
		Name: "chaos-echo", Owner: mem.OwnerTaskBase + 1,
		LibOS: libos.Config{HeapPages: 64},
		Main:  chaosEchoMain,
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	return c
}

// chaosOutcome classifies one seeded session.
type chaosOutcome struct {
	completed bool
	err       error // typed failure (nil when completed)
	session   *Session
}

// runChaosSession boots a fresh world, runs one full session under the
// fault plan, and verifies the hard invariants (typed errors only, no
// plaintext on the wire). It never blocks: every wait is bounded.
func runChaosSession(t *testing.T, plan faultinject.Plan) chaosOutcome {
	t.Helper()
	w, err := NewWorld(WorldConfig{Mode: kernel.ModeErebor, MemMB: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Deferred first, so it runs after the plaintext check below.
	defer w.Close()
	c := launchChaosEcho(t, w)
	s := NewInjectedSession(w, faultinject.New(plan))

	secret := []byte(fmt.Sprintf("chaos secret %d: patient record confidential", plan.Seed))
	reply := bytes.ToUpper(secret)
	out := chaosOutcome{session: s}

	defer func() {
		// Invariant 2: the relay never sees plaintext, faulted or not.
		for _, f := range s.Proxy.Seen {
			if bytes.Contains(f, secret) || bytes.Contains(f, reply) {
				t.Fatalf("seed %d: relay observed plaintext", plan.Seed)
			}
		}
	}()

	if err := s.ConnectResilient(c); err != nil {
		if !errors.Is(err, secchan.ErrTimeout) {
			t.Fatalf("seed %d: handshake failed with untyped error: %v", plan.Seed, err)
		}
		out.err = err
		return out
	}
	if err := s.SendWithRetry(secret); err != nil {
		if !errors.Is(err, secchan.ErrTimeout) && !errors.Is(err, secchan.ErrQueueFull) {
			t.Fatalf("seed %d: send failed with untyped error: %v", plan.Seed, err)
		}
		out.err = err
		return out
	}
	got, err := s.RecvWait()
	if err != nil {
		if !errors.Is(err, secchan.ErrTimeout) {
			t.Fatalf("seed %d: recv failed with untyped error: %v", plan.Seed, err)
		}
		out.err = err
		return out
	}
	if !bytes.Equal(got, reply) {
		t.Fatalf("seed %d: reply = %q, want %q", plan.Seed, got, reply)
	}
	out.completed = true
	return out
}

// chaosSeeds returns how many seeded sessions to run per configuration.
// The full run (CI) uses 50+; -short keeps the edit loop fast.
func chaosSeeds(t *testing.T) int {
	if testing.Short() {
		return 10
	}
	return 50
}

// Every fault class, alone, at a 15% per-frame rate across many seeds.
func TestChaosPerFaultClass(t *testing.T) {
	seeds := chaosSeeds(t)
	for class := faultinject.Class(0); class < faultinject.NumWireClasses; class++ {
		class := class
		t.Run(class.String(), func(t *testing.T) {
			completed, injected := 0, uint64(0)
			for seed := 0; seed < seeds; seed++ {
				plan := faultinject.Only(int64(1000*int(class)+seed), class, 0.15)
				out := runChaosSession(t, plan)
				if out.completed {
					completed++
				}
				injected += out.session.Inj.Counters.Total()
			}
			if injected == 0 {
				t.Fatalf("fault class %v never injected across %d sessions", class, seeds)
			}
			// The resilient path must ride out a 15%% rate almost always;
			// the rest must have failed typed (enforced per-session above).
			if completed*10 < seeds*8 {
				t.Fatalf("only %d/%d sessions completed under %v faults", completed, seeds, class)
			}
			t.Logf("%v: %d/%d completed, %d faults injected", class, completed, seeds, injected)
		})
	}
}

// All classes at once (5%% each — nearly every third frame is faulted).
func TestChaosUniformMix(t *testing.T) {
	seeds := chaosSeeds(t)
	completed := 0
	for seed := 0; seed < seeds; seed++ {
		out := runChaosSession(t, faultinject.Uniform(int64(7000+seed), 0.05))
		if out.completed {
			completed++
		}
	}
	if completed*10 < seeds*7 {
		t.Fatalf("only %d/%d sessions completed under the uniform mix", completed, seeds)
	}
	t.Logf("uniform mix: %d/%d completed", completed, seeds)
}

// Invariant 3: the same plan produces the same fault schedule and the same
// outcome. Content-dependent classes (corrupt/truncate draw positions from
// frame lengths, which vary with handshake randomness) are excluded; the
// schedule-level determinism of those is covered in package faultinject.
func TestChaosDeterministicFromSeed(t *testing.T) {
	plan := faultinject.Plan{Seed: 424242, Drop: 0.1, Duplicate: 0.1, Reorder: 0.1, Replay: 0.1}
	a := runChaosSession(t, plan)
	b := runChaosSession(t, plan)
	if a.session.Inj.Counters != b.session.Inj.Counters {
		t.Fatalf("same seed, different schedules:\n  %v\n  %v",
			a.session.Inj.Counters, b.session.Inj.Counters)
	}
	if a.completed != b.completed {
		t.Fatalf("same seed, different outcomes: %v vs %v", a.completed, b.completed)
	}
}

// The attested handshake under heavy per-class fire: it must complete
// after retries or fail with a typed error — never hang, never panic.
func TestHandshakeUnderFaults(t *testing.T) {
	seeds := chaosSeeds(t)
	for class := faultinject.Class(0); class < faultinject.NumWireClasses; class++ {
		class := class
		t.Run(class.String(), func(t *testing.T) {
			ok := 0
			for seed := 0; seed < seeds; seed++ {
				w, err := NewWorld(WorldConfig{Mode: kernel.ModeErebor, MemMB: 64})
				if err != nil {
					t.Fatal(err)
				}
				c := launchChaosEcho(t, w)
				plan := faultinject.Only(int64(9000*int(class)+seed), class, 0.3)
				s := NewInjectedSession(w, faultinject.New(plan))
				err = s.ConnectResilient(c)
				if err != nil && !errors.Is(err, secchan.ErrTimeout) {
					t.Fatalf("seed %d: untyped handshake error: %v", seed, err)
				}
				if err == nil {
					ok++
				}
				w.Close()
			}
			if ok == 0 {
				t.Fatalf("handshake never completed under %v at 30%%", class)
			}
			t.Logf("%v at 30%%: %d/%d handshakes completed", class, ok, seeds)
		})
	}
}

// Satellite: replay-attack regression. An adversary re-injecting captured
// request ciphertext must not get it delivered twice — the record layer
// deduplicates on sequence numbers and counts the replay.
func TestReplayAttackRejected(t *testing.T) {
	w, err := NewWorld(WorldConfig{Mode: kernel.ModeErebor, MemMB: 64})
	if err != nil {
		t.Fatal(err)
	}
	c := launchChaosEcho(t, w)
	s := NewSession(w)
	if err := s.ConnectResilient(c); err != nil {
		t.Fatal(err)
	}
	secret := []byte("replay-me-once")
	if err := s.Client.Send(secret); err != nil {
		t.Fatal(err)
	}
	got, err := s.RecvWait()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.EqualFold(string(got), string(secret)) {
		t.Fatalf("reply = %q", got)
	}

	// The adversary replays every frame it observed on the wire straight at
	// the monitor (the guest is still lingering on the channel).
	replayed := make([][]byte, len(s.Proxy.Seen))
	copy(replayed, s.Proxy.Seen)
	for _, f := range replayed {
		if err := s.Proxy.Inner.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		w.K.StepOne()
	}

	cs := w.Mon.ChannelStats()
	if cs.Duplicates == 0 {
		t.Fatal("monitor never classified the replayed record as a duplicate")
	}
	if cs.Delivered != 1 {
		t.Fatalf("monitor delivered %d records, want exactly 1", cs.Delivered)
	}
	// The client, likewise, never sees a second (replayed) response.
	if extra, err := s.Client.Recv(); err == nil {
		t.Fatalf("client received a replayed record: %q", extra)
	}
}

// Satellite: bounded NIC queues surface typed backpressure instead of
// growing without limit under a flood.
func TestNICBackpressure(t *testing.T) {
	w, err := NewWorld(WorldConfig{Mode: kernel.ModeErebor, MemMB: 64})
	if err != nil {
		t.Fatal(err)
	}
	w.Host.NetQueueCap = 2
	for i := 0; i < 2; i++ {
		if err := w.K.NetSend([]byte("frame")); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	err = w.K.NetSend([]byte("frame"))
	if !errors.Is(err, secchan.ErrQueueFull) {
		t.Fatalf("overflow error = %v, want ErrQueueFull", err)
	}
	if w.Host.NetDrops != 1 {
		t.Fatalf("NetDrops = %d, want 1", w.Host.NetDrops)
	}
	// Drain one frame; transmit works again (backpressure, not wedging).
	nic := &hostNIC{w}
	if _, err := nic.Recv(); err != nil {
		t.Fatal(err)
	}
	if err := w.K.NetSend([]byte("frame")); err != nil {
		t.Fatalf("send after drain: %v", err)
	}

	// The inbound direction is bounded the same way.
	w.Host.NetIn = nil
	for i := 0; i < 2; i++ {
		if err := nic.Send([]byte("in")); err != nil {
			t.Fatal(err)
		}
	}
	if err := nic.Send([]byte("in")); !errors.Is(err, secchan.ErrQueueFull) {
		t.Fatalf("inbound overflow error = %v, want ErrQueueFull", err)
	}
}
