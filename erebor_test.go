package erebor

import (
	"bytes"
	"strings"
	"testing"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	p, err := NewPlatform(PlatformConfig{MemMB: 96})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.PublishCommon("dict", []byte("shared dictionary bytes")); err != nil {
		t.Fatal(err)
	}
	c, err := p.Launch(ContainerConfig{
		Name: "svc", HeapPages: 64, Commons: []string{"dict"},
		Main: func(r *Runtime) {
			in, err := r.ReceiveInput(4096)
			if err != nil || in == nil {
				return
			}
			// Touch the shared dataset read-only.
			base, ok := r.CommonBase("dict")
			if !ok {
				return
			}
			var head [6]byte
			r.Read(base, head[:])
			r.Charge(10_000)
			out := append(bytes.ToUpper(in), ' ')
			out = append(out, head[:]...)
			if err := r.SendOutput(out); err != nil {
				return
			}
			r.EndSession()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := p.Connect(c)
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("classified request")
	if err := cl.Send(secret); err != nil {
		t.Fatal(err)
	}
	p.Run()
	reply, err := cl.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "CLASSIFIED REQUEST shared" {
		t.Fatalf("reply %q", reply)
	}
	for _, f := range cl.WireFrames() {
		if bytes.Contains(f, secret) || bytes.Contains(f, []byte("CLASSIFIED")) {
			t.Fatal("plaintext on the wire")
		}
	}
	st := c.Status()
	if !st.Destroyed {
		t.Fatal("session not cleaned up")
	}
	if s := p.Stats(); s.EMCs == 0 || s.QuotesIssued != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestPublicAPIKillPolicy(t *testing.T) {
	p, err := NewPlatform(PlatformConfig{MemMB: 64})
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Launch(ContainerConfig{
		Name: "rogue", HeapPages: 32,
		Main: func(r *Runtime) {
			if in, _ := r.ReceiveInput(1024); in == nil {
				return
			}
			// Prohibited after data install: a raw syscall.
			r.LibOS().Env.Syscall(13 /* getpid */)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.PushInput(c, []byte("secret")); err != nil {
		t.Fatal(err)
	}
	p.Run()
	st := c.Status()
	if !st.Destroyed || !strings.Contains(st.KillReason, "syscall") {
		t.Fatalf("status: %+v", st)
	}
	if p.Stats().SandboxKills != 1 {
		t.Fatal("kill not counted")
	}
}

func TestPublicAPIBaseline(t *testing.T) {
	p, err := NewPlatform(PlatformConfig{MemMB: 64, Baseline: true})
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Launch(ContainerConfig{
		Name: "plain", HeapPages: 32,
		Main: func(r *Runtime) {
			in, _ := r.ReceiveInput(1024)
			if in == nil {
				return
			}
			_ = r.SendOutput(bytes.ToLower(in))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Connect(c); err == nil {
		t.Fatal("baseline platform offered attestation")
	}
	if err := p.PushInput(c, []byte("VIA DEVEMU")); err != nil {
		t.Fatal(err)
	}
	p.Run()
	outs := p.PopOutputs()
	if len(outs) != 1 || string(outs[0]) != "via devemu" {
		t.Fatalf("outputs %q", outs)
	}
}

func TestPublicAPIMultiTenant(t *testing.T) {
	p, err := NewPlatform(PlatformConfig{MemMB: 128})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.PublishCommon("model", make([]byte, 64*1024)); err != nil {
		t.Fatal(err)
	}
	const tenants = 3
	var cs []*Container
	for i := 0; i < tenants; i++ {
		c, err := p.Launch(ContainerConfig{
			Name: "tenant", HeapPages: 32, Commons: []string{"model"},
			Main: func(r *Runtime) {
				in, _ := r.ReceiveInput(1024)
				if in == nil {
					return
				}
				base, _ := r.CommonBase("model")
				var b [8]byte
				r.Read(base, b[:])
				_ = r.SendOutput(in)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.PushInput(c, []byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	p.Run()
	outs := p.PopOutputs()
	if len(outs) != tenants {
		t.Fatalf("outputs %d", len(outs))
	}
	for _, c := range cs {
		if c.Err() != nil {
			t.Fatal(c.Err())
		}
	}
}

// TestNewPlatformRefusesUnhonorableChaos: a chaos config whose rates sum
// above 1, or with a rate outside [0, 1], is refused before the platform
// boots; one within bounds boots.
func TestNewPlatformRefusesUnhonorableChaos(t *testing.T) {
	uniform := func(rate float64) *ChaosConfig {
		return &ChaosConfig{Seed: 3, DropRate: rate, DuplicateRate: rate, ReorderRate: rate,
			CorruptRate: rate, TruncateRate: rate, ReplayRate: rate}
	}
	stalls := uniform(0)
	stalls.LatencyRate = -0.5
	for _, tc := range []struct {
		chaos *ChaosConfig
		want  string
	}{
		{uniform(0.25), "wire fault rates sum to 1.5, above 1"},
		{stalls, "latency rate -0.5 outside [0, 1]"},
	} {
		_, err := NewPlatform(PlatformConfig{MemMB: 64, Chaos: tc.chaos})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("NewPlatform(%+v) = %v, want an error naming %q", *tc.chaos, err, tc.want)
		}
	}
	if _, err := NewPlatform(PlatformConfig{MemMB: 64, Chaos: uniform(0.16)}); err != nil {
		t.Fatalf("NewPlatform refused chaos within bounds: %v", err)
	}
}
