// Private information retrieval (the paper's drugbank scenario): an
// in-memory database shared read-only across sandboxes; each client's query
// batch stays confined to its own sandbox.
//
//	go run ./examples/private-retrieval
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"log"

	erebor "github.com/asterisc-release/erebor-go"
	"github.com/asterisc-release/erebor-go/internal/paging"
	"github.com/asterisc-release/erebor-go/internal/workloads"
	"github.com/asterisc-release/erebor-go/internal/workloads/retrieval"
)

func main() {
	p, err := erebor.NewPlatform(erebor.PlatformConfig{MemMB: 160})
	if err != nil {
		log.Fatal(err)
	}
	wl := retrieval.New(1)
	fmt.Printf("publishing a %.1f MB medical database (%d records) as a common region\n",
		float64(len(wl.CommonData()))/(1<<20), wl.DB.Records)
	if err := p.PublishCommon(wl.Name(), wl.CommonData()); err != nil {
		log.Fatal(err)
	}

	container, err := p.Launch(erebor.ContainerConfig{
		Name:      "pir-service",
		HeapPages: wl.HeapPages() + 64,
		Commons:   []string{wl.Name()},
		Main: func(r *erebor.Runtime) {
			queries, err := r.ReceiveInput(len(wl.Input()) + 4096)
			if err != nil || queries == nil {
				return
			}
			dbVA, _ := r.CommonBase(wl.Name())
			ctx := &workloads.Ctx{
				E: r.LibOS().Env, CommonVA: dbVA, Input: queries,
				Alloc: func(sz int) paging.Addr {
					va, err := r.Alloc(sz)
					if err != nil {
						panic(err)
					}
					return va
				},
			}
			_ = r.SendOutput(wl.Run(ctx))
			r.EndSession()
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	client, err := p.Connect(container)
	if err != nil {
		log.Fatal(err)
	}
	// The client's query batch: which records it looks up is the secret.
	queries := wl.Input()
	fmt.Printf("client sends %d confidential lookups\n", binary.LittleEndian.Uint32(queries))
	if err := client.Send(queries); err != nil {
		log.Fatal(err)
	}
	p.Run()
	reply, err := client.Recv()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("retrieval summary: %s\n", reply)
	for _, f := range client.WireFrames() {
		if bytes.Contains(f, queries[:64]) || bytes.Contains(f, reply) {
			log.Fatal("SECURITY VIOLATION: proxy observed plaintext")
		}
	}
	fmt.Println("the proxy and host saw only fixed-length ciphertext records")
}
