// LLM inference (the paper's llama.cpp scenario): a transformer model is
// published once as a shared read-only common region; a client sends a
// confidential prompt over the attested channel and receives generated
// tokens. The model is shared; the prompt and KV cache are confined.
//
//	go run ./examples/llm-inference
package main

import (
	"fmt"
	"log"

	erebor "github.com/asterisc-release/erebor-go"
	"github.com/asterisc-release/erebor-go/internal/paging"
	"github.com/asterisc-release/erebor-go/internal/workloads"
	"github.com/asterisc-release/erebor-go/internal/workloads/llm"
)

func main() {
	p, err := erebor.NewPlatform(erebor.PlatformConfig{MemMB: 160})
	if err != nil {
		log.Fatal(err)
	}
	model := llm.New(1)
	fmt.Printf("publishing %0.1f MB model as a common region\n",
		float64(len(model.CommonData()))/(1<<20))
	if err := p.PublishCommon("llama-model", model.CommonData()); err != nil {
		log.Fatal(err)
	}

	container, err := p.Launch(erebor.ContainerConfig{
		Name:      "llm-service",
		HeapPages: model.HeapPages() + 64,
		Commons:   []string{"llama-model"},
		Main: func(r *erebor.Runtime) {
			prompt, err := r.ReceiveInput(4096)
			if err != nil || prompt == nil {
				return
			}
			modelVA, _ := r.CommonBase("llama-model")
			ctx := &workloads.Ctx{
				E: r.LibOS().Env, CommonVA: modelVA, Input: prompt,
				Alloc: func(sz int) paging.Addr {
					va, err := r.Alloc(sz)
					if err != nil {
						panic(err)
					}
					return va
				},
			}
			_ = r.SendOutput(model.Run(ctx))
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
	prompt := "Translate to French: the hospital records are private."
	fmt.Printf("client prompt (confidential): %q\n", prompt)
	if err := client.Send([]byte(prompt)); err != nil {
		log.Fatal(err)
	}
	p.Run()
	reply, err := client.Recv()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inference result: %s\n", reply)
	st := p.Stats()
	fmt.Printf("sandbox exits: %d  monitor calls: %d  (the prompt never left the channel in plaintext)\n",
		st.SandboxExits, st.EMCs)
}
