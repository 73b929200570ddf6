// Multi-tenant deployment: several sandboxes serve different clients from
// one shared model while remaining mutually isolated. The example measures
// the memory saved by common regions (§9.2) and demonstrates that a
// malicious tenant cannot reach another tenant's confined memory.
//
//	go run ./examples/multi-tenant
package main

import (
	"fmt"
	"log"

	erebor "github.com/asterisc-release/erebor-go"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/monitor"
	"github.com/asterisc-release/erebor-go/internal/workloads/llm"
)

const tenants = 4

func main() {
	p, err := erebor.NewPlatform(erebor.PlatformConfig{MemMB: 256})
	if err != nil {
		log.Fatal(err)
	}
	model := llm.New(1)
	if err := p.PublishCommon("model", model.CommonData()); err != nil {
		log.Fatal(err)
	}
	phys := p.World().Phys
	before := phys.AllocatedFrames()

	var containers []*erebor.Container
	for i := 0; i < tenants; i++ {
		c, err := p.Launch(erebor.ContainerConfig{
			Name:      fmt.Sprintf("tenant-%d", i),
			HeapPages: 64,
			Commons:   []string{"model"},
			Main: func(r *erebor.Runtime) {
				secret, err := r.ReceiveInput(1024)
				if err != nil || secret == nil {
					return
				}
				// Touch some of the shared model (read-only works)...
				var probe [8]byte
				modelVA, _ := r.CommonBase("model")
				r.Read(modelVA, probe[:])
				// ...and keep the per-tenant secret in confined memory.
				va, _ := r.Alloc(len(secret))
				r.Write(va, secret)
				_ = r.SendOutput([]byte(fmt.Sprintf("tenant %d processed %d secret bytes", i, len(secret))))
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := p.PushInput(c, []byte(fmt.Sprintf("secret-of-tenant-%d", i))); err != nil {
			log.Fatal(err)
		}
		containers = append(containers, c)
	}
	p.Run()

	used := (phys.AllocatedFrames() - before) * mem.PageSize
	modelBytes := uint64(len(model.CommonData()))
	fmt.Printf("%d tenants share one %.1f MB model: extra memory used %.1f MB "+
		"(replication would need %.1f MB)\n",
		tenants, float64(modelBytes)/(1<<20), float64(used)/(1<<20),
		float64(uint64(tenants)*modelBytes+used)/(1<<20))

	for i, c := range containers {
		st := c.Status()
		fmt.Printf("  %-10s exits=%-3d confined=%3d pages  alive=%v\n",
			fmt.Sprintf("tenant-%d", i), st.Exits, st.ConfinedPages, !st.Destroyed)
	}

	// Cross-tenant attack: tenant 0's kernel accomplice tries to map one of
	// tenant 1's confined frames. Launch numbers owners from
	// mem.OwnerTaskBase+1 in launch order, so tenant 1 is OwnerTaskBase+2.
	victim := mem.OwnerTaskBase + 2
	var victimFrame mem.Frame
	for f := mem.Frame(0); uint64(f) < phys.NumFrames(); f++ {
		meta, _ := phys.Meta(f)
		if meta.Allocated && meta.Pinned && meta.Owner == victim {
			victimFrame = f
			break
		}
	}
	mon, core := p.Monitor(), p.World().Core()
	evilAS, err := mon.EMCCreateAS(core, mem.OwnerTaskBase+99)
	if err != nil {
		log.Fatal(err)
	}
	err = mon.EMCUserMMU(core, evilAS, monitor.RingReq{Op: monitor.OpMap, VA: 0x5000_0000, Frame: victimFrame})
	if err == nil {
		log.Fatal("SECURITY VIOLATION: cross-tenant mapping succeeded")
	}
	fmt.Printf("cross-tenant mapping attempt denied: %v\n", err)
}
