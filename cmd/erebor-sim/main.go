// Command erebor-sim boots a complete simulated Erebor CVM and runs the
// artifact's hello-world demo (appendix E2): verified two-stage boot, a
// sandboxed program, an attested end-to-end secure channel through the
// untrusted proxy, and session cleanup. It prints every step so the flow
// of §4-§6 is visible.
package main

import (
	"bytes"
	"fmt"
	"os"

	erebor "github.com/asterisc-release/erebor-go"
	"github.com/asterisc-release/erebor-go/internal/costs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "erebor-sim:", err)
		os.Exit(1)
	}
}

func run() error {
	fmt.Println("[1] booting TDX guest: firmware + EREBOR-MONITOR measured, kernel verified & loaded")
	p, err := erebor.NewPlatform(erebor.PlatformConfig{MemMB: 96})
	if err != nil {
		return err
	}
	fmt.Printf("    boot consumed %.2f ms of simulated time; lockdown engaged\n",
		costs.CyclesToSeconds(p.Stats().VirtualCycles)*1e3)

	fmt.Println("[2] launching EREBOR-SANDBOX 'helloworld' with a LibOS")
	c, err := p.Launch(erebor.ContainerConfig{
		Name: "helloworld", HeapPages: 64,
		Main: func(r *erebor.Runtime) {
			in, err := r.ReceiveInput(4096)
			if err != nil || in == nil {
				return
			}
			// The demo program answers with 0x41..41 ("AA..A"), like the
			// artifact's helloworld.
			out := append([]byte("hello from the sandbox! input was: "), in...)
			out = append(out, ' ')
			out = append(out, bytes.Repeat([]byte{0x41}, 10)...)
			_ = r.SendOutput(out)
			r.EndSession()
		},
	})
	if err != nil {
		return err
	}

	fmt.Println("[3] remote client: attested handshake through the untrusted proxy")
	cl, err := p.Connect(c)
	if err != nil {
		return err
	}
	fmt.Println("    quote verified: measurement matches the open-source monitor build")

	fmt.Println("[4] sending confidential input over the channel")
	if err := cl.Send([]byte("secret prompt")); err != nil {
		return err
	}
	p.Run()
	if err := c.Err(); err != nil {
		return err
	}
	reply, err := cl.Recv()
	if err != nil {
		return err
	}
	fmt.Printf("[5] client received: %q\n", reply)

	frames := cl.WireFrames()
	for _, f := range frames {
		if bytes.Contains(f, []byte("secret prompt")) {
			return fmt.Errorf("SECURITY VIOLATION: proxy observed plaintext")
		}
	}
	fmt.Printf("    proxy relayed %d frames, all ciphertext\n", len(frames))

	st := p.Stats()
	fmt.Printf("[6] session ended: sandbox destroyed=%v, confined memory scrubbed\n", c.Status().Destroyed)
	fmt.Printf("    monitor stats: EMCs=%d sandbox-exits=%d quotes=%d\n",
		st.EMCs, st.SandboxExits, st.QuotesIssued)
	return nil
}
