// Quickstart: boot a simulated Erebor CVM, launch one sandboxed service,
// and exchange a confidential request/response over the attested channel.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"strings"

	erebor "github.com/asterisc-release/erebor-go"
)

func main() {
	// 1. Boot the platform: TDX module, EREBOR-MONITOR (verified boot),
	//    deprivileged kernel.
	p, err := erebor.NewPlatform(erebor.PlatformConfig{MemMB: 96})
	if err != nil {
		log.Fatal(err)
	}

	// 2. The service provider launches a sandboxed program. Its Main runs
	//    inside the sandbox on a LibOS; after client data arrives, the only
	//    way in or out is the monitor's channel.
	container, err := p.Launch(erebor.ContainerConfig{
		Name: "echo-upper", HeapPages: 64,
		Main: func(r *erebor.Runtime) {
			data, err := r.ReceiveInput(4096)
			if err != nil || data == nil {
				return
			}
			if err := r.SendOutput([]byte(strings.ToUpper(string(data)))); err != nil {
				return
			}
			r.EndSession()
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// 3. A remote client attests the monitor and opens a secure channel
	//    through the untrusted in-CVM proxy.
	client, err := p.Connect(container)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Confidential request in, padded+encrypted response out.
	if err := client.Send([]byte("my private document")); err != nil {
		log.Fatal(err)
	}
	p.Run()
	reply, err := client.Recv()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("client sent:     %q\n", "my private document")
	fmt.Printf("client received: %q\n", reply)
	fmt.Printf("sandbox cleaned up after session: %v\n", container.Status().Destroyed)
}
