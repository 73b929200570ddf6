package kernel

import (
	"github.com/asterisc-release/erebor-go/internal/image"
	"github.com/asterisc-release/erebor-go/internal/isa"
	"github.com/asterisc-release/erebor-go/internal/monitor"
)

// ImageOptions controls synthetic kernel-image generation.
type ImageOptions struct {
	// Instrumented replaces every sensitive privileged instruction with a
	// call to the EMC dispatch stub (the paper's §5.1 source
	// instrumentation). Un-instrumented images must be rejected by the
	// monitor's verified boot.
	Instrumented bool
	// HideInImmediate embeds a sensitive byte pattern inside a mov
	// immediate — an evasion attempt the byte-level scanner must still
	// catch (it scans at every offset).
	HideInImmediate bool
	// TextKB sizes the synthetic text section.
	TextKB int
}

// kernelImageBase is where the synthetic kernel links its sections.
const kernelImageBase = uint64(monitor.KernelTextBase) + 0x10_0000

// sensitiveSites are the privileged operations a stock kernel executes
// inline and an instrumented one routes through the EMC stub, in the order
// the text section cycles through them.
var sensitiveSites = [][]byte{
	isa.EmitMovToCR(0), isa.EmitMovToCR(3), isa.EmitMovToCR(4),
	isa.EmitWRMSR(), isa.EmitSTAC(), isa.EmitLIDT(0x40), isa.EmitTDCALL(),
}

// textFiller is the deterministic benign filler between sites: a mov of a
// sanitized immediate, nops and a ret. It is the longest instruction run
// the text section emits.
var textFiller = func() []byte {
	imm := uint64(0x1122334455667788)
	if isa.ContainsImm(imm) {
		imm = 0x1111111111111111
	}
	f := isa.EmitMovImm64(imm)
	f = append(f, isa.EmitNop(5)...)
	return append(f, isa.EmitRet()...)
}()

// hiddenWRMSR is a mov $imm64 whose immediate bytes spell "wrmsr" (0F 30):
// the byte-level scanner must flag it even though a disassembler would
// treat it as data.
var hiddenWRMSR = []byte{0x48, 0xB8, 0x0F, 0x30, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}

// BuildKernelImage generates a synthetic kernel image in the loader format
// the monitor verifies: a text section full of benign instruction filler
// with either instrumented EMC call sites or raw sensitive instructions,
// plus rodata/data/bss sections, symbols and relocations.
func BuildKernelImage(opt ImageOptions) []byte {
	if opt.TextKB <= 0 {
		opt.TextKB = 64
	}
	b := image.NewBuilder("kernel_entry")

	// The last instruction may run past the text size by less than one
	// filler, and the hidden immediate may follow it.
	size := opt.TextKB * 1024
	text := make([]byte, 0, size+len(textFiller)+len(hiddenWRMSR))

	// Entry point.
	entryOff := uint64(len(text))
	text = append(text, isa.EmitEndbr64()...)
	text = append(text, isa.EmitNop(8)...)

	// Privileged-operation sites: where a stock kernel executes sensitive
	// instructions, the instrumented kernel calls the EMC stub instead.
	siteStride := size / (len(sensitiveSites) * 4)
	nextSite := 0
	siteIdx := 0
	for len(text) < size {
		if len(text) >= nextSite {
			site := sensitiveSites[siteIdx%len(sensitiveSites)]
			siteIdx++
			nextSite += siteStride
			if opt.Instrumented {
				// call emc_dispatch (rel32 patched by a relocation-free
				// direct call; the stub lives at the image start).
				text = append(text, isa.EmitCallRel32(int32(int64(entryOff)-int64(len(text))-5))...)
			} else {
				text = append(text, site...)
			}
			continue
		}
		text = append(text, textFiller...)
	}
	if opt.HideInImmediate {
		text = append(text, hiddenWRMSR...)
	}

	b.Section(".text", image.Text, kernelImageBase, text)

	// Read-only data with a relocation pointing back at the entry symbol
	// (exercises the loader's relocation pass).
	rodata := make([]byte, 4096)
	copy(rodata, []byte("erebor-sim synthetic kernel v6.6.0\x00"))
	roIdx := b.Section(".rodata", image.Rodata, kernelImageBase+0x100_0000, rodata)
	b.Reloc(roIdx, 64, "kernel_entry", 0)

	data := make([]byte, 8192)
	dataIdx := b.Section(".data", image.Data, kernelImageBase+0x200_0000, data)
	b.Reloc(dataIdx, 0, "kernel_entry", 16)

	b.Bss(".bss", kernelImageBase+0x300_0000, 4*4096)

	b.Symbol("kernel_entry", kernelImageBase+entryOff)
	b.Symbol("emc_dispatch", kernelImageBase+entryOff)

	im, err := b.Image()
	if err != nil {
		panic("kernel: building synthetic image: " + err.Error())
	}
	return im.Encode()
}
