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

	"github.com/asterisc-release/erebor-go/internal/harness"
	"github.com/asterisc-release/erebor-go/internal/kernel"
	"github.com/asterisc-release/erebor-go/internal/libos"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/monitor"
	"github.com/asterisc-release/erebor-go/internal/sandbox"
	"github.com/asterisc-release/erebor-go/internal/workloads/llm"
)

const tenants = 4

func main() {
	world, err := harness.NewWorld(harness.WorldConfig{Mode: kernel.ModeErebor, MemMB: 256})
	if err != nil {
		log.Fatal(err)
	}
	model := llm.New(1)
	if err := sandbox.CreateCommon(world.K, "model", model.CommonData()); err != nil {
		log.Fatal(err)
	}
	before := world.Phys.AllocatedFrames()

	var containers []*sandbox.Container
	for i := 0; i < tenants; i++ {
		i := i
		c, err := sandbox.Launch(world.K, sandbox.Spec{
			Name:    fmt.Sprintf("tenant-%d", i),
			Owner:   mem.OwnerTaskBase + mem.Owner(1+i),
			LibOS:   libos.Config{HeapPages: 64},
			Commons: []sandbox.CommonRef{{Name: "model"}},
			Main: func(c *sandbox.Container, os *libos.OS) {
				buf, n, err := os.ReceiveInput(1024, 8)
				if err != nil || n == 0 {
					return
				}
				secret := make([]byte, n)
				os.Env.ReadMem(buf, secret)
				// Touch some of the shared model (read-only works)...
				var probe [8]byte
				os.Env.ReadMem(c.CommonVAs["model"], probe[:])
				// ...and keep the per-tenant secret in confined memory.
				va, _ := os.Alloc(len(secret))
				os.Env.WriteMem(va, secret)
				_ = os.SendOutputBytes([]byte(fmt.Sprintf("tenant %d processed %d secret bytes", i, n)))
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := world.Mon.QueueClientInput(c.ID, []byte(fmt.Sprintf("secret-of-tenant-%d", i))); err != nil {
			log.Fatal(err)
		}
		containers = append(containers, c)
	}
	world.K.Schedule()

	used := (world.Phys.AllocatedFrames() - before) * mem.PageSize
	modelBytes := uint64(len(model.CommonData()))
	fmt.Printf("%d tenants share one %.1f MB model: extra memory used %.1f MB "+
		"(replication would need %.1f MB)\n",
		tenants, float64(modelBytes)/(1<<20), float64(used)/(1<<20),
		float64(uint64(tenants)*modelBytes+used)/(1<<20))

	for _, c := range containers {
		out := world.Mon.DebugOutputs()
		_ = out
		info, _ := c.Info()
		fmt.Printf("  %-10s exits=%-3d confined=%3d pages  alive=%v\n",
			c.Spec.Name, info.Exits, info.ConfinedPages, !info.Destroyed)
	}

	// Cross-tenant attack: tenant 0's kernel accomplice tries to map one of
	// tenant 1's confined frames.
	var victimFrame mem.Frame
	for f := mem.Frame(0); uint64(f) < world.Phys.NumFrames(); f++ {
		meta, _ := world.Phys.Meta(f)
		if meta.Allocated && meta.Pinned && meta.Owner == containers[1].Spec.Owner {
			victimFrame = f
			break
		}
	}
	evilAS, err := world.Mon.EMCCreateAS(world.Core(), mem.OwnerTaskBase+99)
	if err != nil {
		log.Fatal(err)
	}
	err = world.Mon.EMCUserMMU(world.Core(), evilAS, monitor.RingReq{Op: monitor.OpMap, VA: 0x5000_0000, Frame: victimFrame})
	if err == nil {
		log.Fatal("SECURITY VIOLATION: cross-tenant mapping succeeded")
	}
	fmt.Printf("cross-tenant mapping attempt denied: %v\n", err)
}
