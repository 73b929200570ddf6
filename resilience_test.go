package erebor

import (
	"bytes"
	"fmt"
	"testing"
)

// The public resilient path: a platform's bounded relay queues, driven
// end to end through SendWithRetry and RecvWait instead of the
// fire-and-forget Send/Recv pair.
func TestPublicAPIResilientPath(t *testing.T) {
	p, err := NewPlatform(PlatformConfig{MemMB: 96})
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Launch(ContainerConfig{
		Name: "resilient-svc", HeapPages: 64,
		Main: func(r *Runtime) {
			in, err := r.ReceiveInput(4096)
			if err != nil || in == nil {
				return
			}
			if err := r.SendOutput(bytes.ToUpper(in)); err != nil {
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
	secret := []byte("resilient confidential payload")
	if err := cl.SendWithRetry(secret); err != nil {
		t.Fatal(err)
	}
	reply, err := cl.RecvWait()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reply, bytes.ToUpper(secret)) {
		t.Fatalf("reply %q", reply)
	}
	for _, f := range cl.WireFrames() {
		if bytes.Contains(f, secret) || bytes.Contains(f, bytes.ToUpper(secret)) {
			t.Fatal("plaintext on the wire")
		}
	}
	p.Run()

	st := p.Stats()
	if st.RuntimeViolations != 0 {
		t.Fatalf("clean run recorded %d runtime violations: %v",
			st.RuntimeViolations, p.RuntimeViolationLog())
	}
	if st.NetDrops != 0 {
		t.Fatalf("clean run dropped %d NIC frames", st.NetDrops)
	}
	if st.ChannelCorrupt != 0 || st.ChannelErrors != 0 {
		t.Fatalf("clean run surfaced channel faults: %+v", st)
	}
	if len(p.RuntimeViolationLog()) != 0 {
		t.Fatalf("violation log non-empty: %v", p.RuntimeViolationLog())
	}
}

// A container that loops over requests reuses its confined input and
// output buffers, so it answers more requests than its heap has pages.
func TestRuntimeServesMoreRequestsThanHeapPages(t *testing.T) {
	const heapPages, requests = 64, 100
	p, err := NewPlatform(PlatformConfig{MemMB: 96})
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Launch(ContainerConfig{
		Name: "looping-svc", HeapPages: heapPages,
		Main: func(r *Runtime) {
			for i := 0; i < requests; i++ {
				in, err := r.ReceiveInput(4096)
				if err != nil || in == nil {
					break
				}
				if err := r.SendOutput(bytes.ToUpper(in)); err != nil {
					break
				}
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
	for i := 0; i < requests; i++ {
		req := fmt.Appendf(nil, "request %d: confidential payload", i)
		if err := cl.SendWithRetry(req); err != nil {
			t.Fatalf("request %d send: %v", i, err)
		}
		reply, err := cl.RecvWait()
		if err != nil {
			t.Fatalf("request %d recv: %v", i, err)
		}
		if !bytes.Equal(reply, bytes.ToUpper(req)) {
			t.Fatalf("request %d: reply %q", i, reply)
		}
	}
	p.Run()
}

// A public platform's chaos run replays: the plan's seed also seeds the
// platform's quoting key and every handshake key share, so two platforms
// with one ChaosConfig relay the same frames and trace the same run byte
// for byte. Seed 10 finishes its handshake at this rate.
func TestPublicChaosRunReplays(t *testing.T) {
	const requests = 8
	run := func() (frames [][]byte, chrome []byte) {
		const rate = 0.16
		p, err := NewPlatform(PlatformConfig{
			MemMB: 96,
			Trace: TraceConfig{Enabled: true},
			Chaos: &ChaosConfig{Seed: 10, DropRate: rate, DuplicateRate: rate, ReorderRate: rate,
				CorruptRate: rate, TruncateRate: rate, ReplayRate: rate},
		})
		if err != nil {
			t.Fatal(err)
		}
		c, err := p.Launch(ContainerConfig{
			Name: "chaos-echo", HeapPages: 64,
			Main: func(r *Runtime) {
				for i := 0; i < requests; i++ {
					in, err := r.ReceiveInput(4096)
					if err != nil || in == nil {
						break
					}
					if err := r.SendOutput(bytes.ToUpper(in)); err != nil {
						break
					}
				}
				// Linger so retransmitted requests are still served from
				// the monitor's history before teardown.
				r.ReceiveInput(4096)
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
		for i := 0; i < requests; i++ {
			// A round trip may time out under chaos; the replay covers how.
			if cl.SendWithRetry(fmt.Appendf(nil, "request %d: confidential payload", i)) == nil {
				cl.RecvWait()
			}
		}
		p.Run()
		var buf bytes.Buffer
		if err := p.ExportChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return cl.WireFrames(), buf.Bytes()
	}
	fa, ca := run()
	fb, cb := run()
	for i := 0; i < len(fa) && i < len(fb); i++ {
		if !bytes.Equal(fa[i], fb[i]) {
			t.Fatalf("same chaos config, relayed frame %d differs", i)
		}
	}
	if len(fa) != len(fb) {
		t.Fatalf("same chaos config, %d relayed frames vs %d", len(fa), len(fb))
	}
	if !bytes.Equal(ca, cb) {
		t.Fatal("same chaos config, different Chrome exports")
	}
}
