package monitor

import (
	"crypto/sha512"
	"fmt"

	"github.com/asterisc-release/erebor-go/internal/image"
	"github.com/asterisc-release/erebor-go/internal/isa"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/paging"
)

// buildMonitorText synthesizes the monitor's measured text blob: the EMC
// entry gate's endbr64 at offset 0, followed by gate/dispatch filler that
// contains neither another endbr64 nor (statically visible) sensitive
// instruction starts at its entry — the monitor legitimately contains
// sensitive instructions in its body, which is exactly why CET must fence
// all entries to offset 0 (§5.3).
func buildMonitorText() []byte {
	text := isa.EmitEndbr64() // the only landing pad
	// Gate body: stac/clac window, CR/MSR writers, tdcall — the privileged
	// bodies the monitor executes on the kernel's behalf.
	text = append(text, isa.EmitSTAC()...)
	text = append(text, isa.EmitCLAC()...)
	text = append(text, isa.EmitMovToCR(0)...)
	text = append(text, isa.EmitMovToCR(3)...)
	text = append(text, isa.EmitMovToCR(4)...)
	text = append(text, isa.EmitWRMSR()...)
	text = append(text, isa.EmitTDCALL()...)
	text = append(text, isa.EmitLIDT(0x100)...)
	text = append(text, isa.EmitNop(64)...)
	text = append(text, isa.EmitRet()...)
	// Pad to two pages of benign filler.
	for len(text) < 2*mem.PageSize {
		text = append(text, isa.EmitNop(16)...)
		text = append(text, isa.EmitRet()...)
	}
	return text[:2*mem.PageSize]
}

// ScanReport is the outcome of the boot-time kernel-image verification.
type ScanReport struct {
	SectionsScanned int
	BytesScanned    int
	Violations      []string
}

// LoadedKernel describes a verified, relocated, mapped kernel.
type LoadedKernel struct {
	Entry   paging.Addr
	Image   *image.Image
	Report  ScanReport
	TextVAs []paging.Addr
}

// LoadKernel performs stage two of the verified boot (§5.1): decode the
// kernel image, apply relocations, byte-scan every executable section for
// sensitive instruction sequences, copy sections into fresh frames, and
// map them with W-xor-X permissions in the kernel tables. The kernel
// measurement is extended into RTMR[0]. The scan runs after relocation, on
// the bytes that will be mapped: a relocation writes eight bytes of the
// image's choosing into the text, so scanning before it would pass text
// the relocation turns into a sensitive instruction.
func (mon *Monitor) LoadKernel(imgBytes []byte) (*LoadedKernel, error) {
	mon.assertBooted()
	img, err := image.Decode(imgBytes)
	if err != nil {
		return nil, fmt.Errorf("monitor: rejecting kernel image: %w", err)
	}
	if err := img.Relocate(); err != nil {
		return nil, fmt.Errorf("monitor: kernel relocation failed: %w", err)
	}

	var rep ScanReport
	for _, s := range img.Sections {
		if s.Type != image.Text {
			continue
		}
		rep.SectionsScanned++
		rep.BytesScanned += len(s.Data)
		for _, m := range isa.Scan(s.Data) {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("section %q: %s", s.Name, m))
		}
	}
	if len(rep.Violations) > 0 {
		return nil, fmt.Errorf("monitor: kernel image contains %d sensitive instruction sequence(s); first: %s",
			len(rep.Violations), rep.Violations[0])
	}

	lk := &LoadedKernel{Image: img, Report: rep}
	for _, s := range img.Sections {
		if s.VAddr < uint64(KernelTextBase) || s.VAddr+s.Size > uint64(DirectMapBase) {
			return nil, fmt.Errorf("monitor: section %q at %#x outside the kernel region", s.Name, s.VAddr)
		}
		if err := mon.mapKernelSection(lk, &s); err != nil {
			return nil, err
		}
	}

	sum := sha512.Sum384(imgBytes)
	if err := mon.TDX.ExtendRTMR(0, sum[:]); err != nil {
		return nil, err
	}
	if img.Entry != "" {
		e, _ := img.Lookup(img.Entry)
		lk.Entry = paging.Addr(e)
	}
	return lk, nil
}

func (mon *Monitor) mapKernelSection(lk *LoadedKernel, s *image.Section) error {
	pages := (s.Size + mem.PageSize - 1) / mem.PageSize
	for p := uint64(0); p < pages; p++ {
		f, err := mon.M.Phys.Alloc(mem.OwnerKernel)
		if err != nil {
			return err
		}
		b, err := mon.M.Phys.Bytes(f)
		if err != nil {
			return err
		}
		if s.Type != image.Bss {
			start := p * mem.PageSize
			end := start + mem.PageSize
			if end > uint64(len(s.Data)) {
				end = uint64(len(s.Data))
			}
			if start < end {
				copy(b, s.Data[start:end])
			}
		}
		va := paging.Addr(s.VAddr + p*mem.PageSize)
		var leaf paging.PTE
		switch s.Type {
		case image.Text:
			leaf = paging.Present.WithFrame(f) // RX: not writable, executable
			mon.roles[f] = frameRole{kind: roleKernelText}
			// W-xor-X also applies to the direct-map alias: kernel text must
			// not be writable through the direct map either.
			if err := mon.kernelTables.Update(DirectMapAddr(f), func(e paging.PTE) paging.PTE {
				return e &^ paging.Writable
			}); err != nil {
				return err
			}
			lk.TextVAs = append(lk.TextVAs, va)
		case image.Rodata:
			leaf = (paging.Present | paging.NX).WithFrame(f)
		default: // Data, Bss
			leaf = (paging.Present | paging.Writable | paging.NX).WithFrame(f)
		}
		if err := mon.kernelTables.Map(va, leaf); err != nil {
			return err
		}
	}
	return nil
}

// loadKernelCode is the dynamic-code path (EMCLoadModule body): scan the
// blob, place it at the next module address, map RX.
func (mon *Monitor) loadKernelCode(code []byte) (uint64, error) {
	if matches := isa.Scan(code); len(matches) > 0 {
		return 0, denied("load-module", "code contains sensitive sequence: %s", matches[0])
	}
	if mon.nextModuleVA == 0 {
		mon.nextModuleVA = uint64(KernelTextBase) + 0x4000_0000
	}
	base := mon.nextModuleVA
	pages := (uint64(len(code)) + mem.PageSize - 1) / mem.PageSize
	if pages == 0 {
		pages = 1
	}
	for p := uint64(0); p < pages; p++ {
		f, err := mon.M.Phys.Alloc(mem.OwnerKernel)
		if err != nil {
			return 0, err
		}
		b, err := mon.M.Phys.Bytes(f)
		if err != nil {
			return 0, err
		}
		start := p * mem.PageSize
		end := start + mem.PageSize
		if end > uint64(len(code)) {
			end = uint64(len(code))
		}
		if start < end {
			copy(b, code[start:end])
		}
		mon.roles[f] = frameRole{kind: roleKernelText}
		if err := mon.kernelTables.Update(DirectMapAddr(f), func(e paging.PTE) paging.PTE {
			return e &^ paging.Writable
		}); err != nil {
			return 0, err
		}
		leaf := paging.Present.WithFrame(f)
		if err := mon.kernelTables.Map(paging.Addr(base+start), leaf); err != nil {
			return 0, err
		}
	}
	mon.nextModuleVA += pages * mem.PageSize
	return base, nil
}
