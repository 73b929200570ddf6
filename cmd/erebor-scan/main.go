// Command erebor-scan is the stand-alone kernel-image verifier: the same
// byte-level sensitive-instruction scan EREBOR-MONITOR runs during the
// verified two-stage boot (§5.1).
//
//	erebor-scan <image-file>     # scan an encoded kernel image
//	erebor-scan -selftest        # generate + scan demo images
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/asterisc-release/erebor-go/internal/image"
	"github.com/asterisc-release/erebor-go/internal/isa"
	"github.com/asterisc-release/erebor-go/internal/kernel"
)

func main() {
	selftest := flag.Bool("selftest", false, "generate and scan demo images")
	emit := flag.String("emit", "", "write a synthetic kernel image (instrumented|raw) to the given file")
	flag.Parse()

	switch {
	case *emit != "":
		kindArg := flag.Arg(0)
		opts := kernel.ImageOptions{Instrumented: kindArg != "raw"}
		if err := os.WriteFile(*emit, kernel.BuildKernelImage(opts), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s kernel image to %s\n", kindArg, *emit)
	case *selftest:
		runSelftest()
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		if scanImage(flag.Arg(0), data) > 0 {
			os.Exit(2)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func runSelftest() {
	fmt.Println("-- instrumented kernel (should be clean) --")
	clean := scanImage("instrumented", kernel.BuildKernelImage(kernel.ImageOptions{Instrumented: true}))
	fmt.Println("-- raw kernel (should be rejected) --")
	dirty := scanImage("raw", kernel.BuildKernelImage(kernel.ImageOptions{Instrumented: false}))
	fmt.Println("-- evasive kernel: sensitive bytes inside an immediate --")
	evasive := scanImage("evasive", kernel.BuildKernelImage(kernel.ImageOptions{Instrumented: true, HideInImmediate: true}))
	if clean != 0 || dirty == 0 || evasive == 0 {
		fmt.Println("SELFTEST FAILED")
		os.Exit(1)
	}
	fmt.Println("selftest passed: scanner accepts instrumented kernels and rejects both attacks")
}

func scanImage(name string, data []byte) int {
	im, err := image.Decode(data)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", name, err))
	}
	// Scan the text as it will be mapped, as the monitor does: a
	// relocation can write a sensitive instruction into it.
	if err := im.Relocate(); err != nil {
		fatal(fmt.Errorf("%s: %w", name, err))
	}
	total := 0
	for _, s := range im.Sections {
		if s.Type != image.Text {
			continue
		}
		matches := isa.Scan(s.Data)
		fmt.Printf("%s %-8s %7d bytes: %d sensitive sequence(s)\n", name, s.Name, len(s.Data), len(matches))
		for i, m := range matches {
			if i >= 5 {
				fmt.Printf("  ... %d more\n", len(matches)-5)
				break
			}
			fmt.Printf("  %s\n", m)
		}
		total += len(matches)
	}
	if total == 0 {
		fmt.Printf("%s: VERIFIED — no sensitive instruction byte sequences\n", name)
	} else {
		fmt.Printf("%s: REJECTED — %d violation(s); the monitor would refuse to boot this kernel\n", name, total)
	}
	return total
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "erebor-scan:", err)
	os.Exit(1)
}
