package harness

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/abi"
	"github.com/asterisc-release/erebor-go/internal/attest"
	"github.com/asterisc-release/erebor-go/internal/cpu"
	"github.com/asterisc-release/erebor-go/internal/image"
	"github.com/asterisc-release/erebor-go/internal/isa"
	"github.com/asterisc-release/erebor-go/internal/kernel"
	"github.com/asterisc-release/erebor-go/internal/libos"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/monitor"
	"github.com/asterisc-release/erebor-go/internal/paging"
	"github.com/asterisc-release/erebor-go/internal/sandbox"
	"github.com/asterisc-release/erebor-go/internal/secchan"
	"github.com/asterisc-release/erebor-go/internal/tdx"
)

func ereborWorld(t *testing.T) *World {
	t.Helper()
	w, err := NewWorld(WorldConfig{Mode: kernel.ModeErebor, MemMB: 64})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// --- C1: verified boot refuses kernels carrying sensitive instructions ---

func TestC1ScannerRejectsEverySensitiveKind(t *testing.T) {
	w := ereborWorld(t)
	for _, kind := range isa.AllKinds {
		img := kernel.BuildKernelImage(kernel.ImageOptions{Instrumented: true})
		// Splice the raw instruction into the encoded image's text bytes.
		raw := isa.Emit(kind)
		idx := bytes.Index(img, []byte{0x90, 0x90, 0x90, 0x90})
		if idx < 0 {
			t.Fatal("no splice point")
		}
		copy(img[idx:], raw)
		if _, err := w.Mon.LoadKernel(img); err == nil {
			t.Errorf("scanner accepted image containing %v", kind)
		}
	}
}

func TestC1ScannerCatchesPatternHiddenInImmediate(t *testing.T) {
	w := ereborWorld(t)
	img := kernel.BuildKernelImage(kernel.ImageOptions{Instrumented: true, HideInImmediate: true})
	if _, err := w.Mon.LoadKernel(img); err == nil {
		t.Fatal("byte-level scan missed a sensitive pattern inside an immediate")
	}
}

// A relocation writes eight bytes chosen by the image into the text after
// decoding, so the scan must see the text as it will be mapped: sixteen
// NOPs whose one relocation, against a symbol valued 0xD8220F, plants
// 0f 22 d8 (mov-to-CR3) at offset 4.
func TestC1ScannerSeesRelocatedText(t *testing.T) {
	w := ereborWorld(t)
	b := image.NewBuilder("")
	text := b.Section(".text", image.Text, uint64(monitor.KernelTextBase), bytes.Repeat([]byte{0x90}, 16))
	b.Symbol("planted", 0xD8220F)
	b.Reloc(text, 4, "planted", 0)
	img, err := b.Image()
	if err != nil {
		t.Fatal(err)
	}
	if m := isa.Scan(img.Sections[text].Data); len(m) != 0 {
		t.Fatalf("the unrelocated text already scans dirty: %v", m)
	}
	_, err = w.Mon.LoadKernel(img.Encode())
	if err == nil {
		t.Fatal("LoadKernel accepted text whose relocation plants mov-to-CR3")
	}
	if !strings.Contains(err.Error(), "sensitive instruction") {
		t.Fatalf("LoadKernel refused the image for another reason: %v", err)
	}
}

// --- C2: the deprivileged kernel cannot create or run sensitive code ---

func TestC2SensitiveInstructionsFaultUnderLockdown(t *testing.T) {
	w := ereborWorld(t)
	c := w.Core() // ring 0, kernel context, lockdown engaged
	if tr := c.WriteCR(cpu.CR4, 0); tr == nil {
		t.Fatal("mov-to-CR4 executed despite lockdown")
	}
	if tr := c.WriteMSR(cpu.MSRLSTAR, 0xdead); tr == nil {
		t.Fatal("wrmsr executed despite lockdown")
	}
	if tr := c.STAC(); tr == nil {
		t.Fatal("stac executed despite lockdown")
	}
	if tr := c.LIDT(cpu.NewIDT()); tr == nil {
		t.Fatal("lidt executed despite lockdown")
	}
	if _, tr := c.TDCall(tdx.LeafTDReport, nil); tr == nil {
		t.Fatal("tdcall executed despite lockdown")
	}
}

func TestC2KernelTextIsImmutable(t *testing.T) {
	w := ereborWorld(t)
	// Find a kernel-text frame and try to write it through the direct map.
	var textFrame mem.Frame
	found := false
	for f := mem.Frame(0); uint64(f) < w.Phys.NumFrames(); f++ {
		meta, _ := w.Phys.Meta(f)
		if meta.Allocated && meta.Owner == mem.OwnerKernel {
			// Probe: try a store; kernel data frames are writable, text is
			// not. We specifically locate a non-writable one.
			if tr := w.K.KernelDirectWrite(f, 0, []byte{0xCC}); tr != nil {
				textFrame = f
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("no write-protected kernel frame found")
	}
	tr := w.K.KernelDirectWrite(textFrame, 128, isa.EmitWRMSR())
	if tr == nil {
		t.Fatal("kernel text writable through the direct map (W^X broken)")
	}
	if tr.Fault == nil || tr.Fault.Reason != paging.FaultWrite {
		t.Fatalf("unexpected fault: %v", tr)
	}
}

func TestC2ModuleLoadValidatesCode(t *testing.T) {
	w := ereborWorld(t)
	c := w.Core()
	// Benign module loads fine.
	good := append(isa.EmitNop(64), isa.EmitRet()...)
	if _, err := w.Mon.EMCLoadModule(c, good); err != nil {
		t.Fatalf("benign module rejected: %v", err)
	}
	// A module smuggling tdcall is rejected.
	bad := append(isa.EmitNop(16), isa.EmitTDCALL()...)
	if _, err := w.Mon.EMCLoadModule(c, bad); err == nil {
		t.Fatal("module containing tdcall accepted")
	}
}

// --- C3: monitor memory and PTPs are untouchable ---

func monitorImageFrame(t *testing.T, w *World) mem.Frame {
	t.Helper()
	pte, _, fault := w.Mon.KernelTables().Walk(monitor.MonitorBase)
	if fault != nil {
		t.Fatalf("monitor image not mapped: %v", fault)
	}
	return pte.Frame()
}

func TestC3MonitorMemoryInaccessible(t *testing.T) {
	w := ereborWorld(t)
	monFrame := monitorImageFrame(t, w)
	var buf [8]byte
	// Through the direct map (PKS on the monitor key).
	if tr := w.K.KernelDirectRead(monFrame, 0, buf[:]); tr == nil {
		t.Fatal("kernel read monitor memory (PKS access-disable broken)")
	} else if tr.Fault.Reason != paging.FaultPKeyAccess {
		t.Fatalf("wrong fault reason: %v", tr.Fault.Reason)
	}
	if tr := w.K.KernelDirectWrite(monFrame, 0, buf[:]); tr == nil {
		t.Fatal("kernel wrote monitor memory")
	}
	// Through the monitor's own mapping too.
	c := w.Core()
	c.SetRing(0)
	if tr := c.Load(monitor.MonitorBase, buf[:]); tr == nil {
		t.Fatal("kernel read monitor VA range")
	}
}

func TestC3PTPWriteProtected(t *testing.T) {
	w := ereborWorld(t)
	// The kernel root PTP itself is a PTP; attempt a direct-map write of a
	// forged PTE into it.
	root := w.Mon.KernelTables().Root
	evil := uint64(paging.Present | paging.Writable | paging.User)
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(evil >> (8 * i))
	}
	tr := w.K.KernelDirectWrite(root, 0, b[:])
	if tr == nil {
		t.Fatal("kernel wrote a page-table page directly (Nested-Kernel invariant broken)")
	}
	if tr.Fault.Reason != paging.FaultPKeyWrite {
		t.Fatalf("wrong fault reason: %v", tr.Fault.Reason)
	}
	// Reading PTEs is allowed (the kernel may walk).
	if tr := w.K.KernelDirectRead(root, 0, b[:]); tr != nil {
		t.Fatalf("kernel cannot read PTEs: %v", tr)
	}
}

func TestC3GHCIRefusesSharingProtectedMemory(t *testing.T) {
	w := ereborWorld(t)
	c := w.Core()
	// Any frame outside the shared-io region must never become CVM-shared.
	f, err := w.Phys.Alloc(mem.OwnerKernel)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Mon.EMCMapGPA(c, f, true); err == nil {
		t.Fatal("monitor shared a non-shared-io frame with the host")
	}
	// And the host cannot read private frames regardless.
	if _, err := w.TDX.HostReadGuestFrame(f); err == nil {
		t.Fatal("host read a CVM-private frame")
	}
}

// --- C4: control flow cannot bypass the EMC gates ---

func TestC4IBTBlocksJumpIntoMonitorBody(t *testing.T) {
	w := ereborWorld(t)
	// The entry gate is the only valid landing pad.
	if err := w.M.IBT.IndirectBranch(monitor.EMCEntryAddr); err != nil {
		t.Fatalf("entry gate rejected: %v", err)
	}
	// Anywhere else inside monitor text is a #CP.
	for _, off := range []uint64{1, 4, 64, 4096} {
		if err := w.M.IBT.IndirectBranch(monitor.EMCEntryAddr + off); err == nil {
			t.Fatalf("indirect branch into monitor body +%d allowed", off)
		}
	}
}

func TestC4MonitorTextHasSingleEndbr(t *testing.T) {
	w := ereborWorld(t)
	pads := isa.FindEndbr(w.Mon.MonitorImage())
	if len(pads) != 1 || pads[0] != 0 {
		t.Fatalf("monitor text endbr landing pads = %v; want exactly [0]", pads)
	}
}

func TestC4InterruptDuringEMCRevokesPermissions(t *testing.T) {
	w := ereborWorld(t)
	c := w.Core()
	monFrame := monitorImageFrame(t, w)
	attackRan := false
	w.Mon.SetPreemptHook(func(c *cpu.Core) {
		attackRan = true
		// Mid-EMC the OS preempts: PKRS must already be revoked.
		var buf [8]byte
		if tr := w.K.KernelDirectRead(monFrame, 0, buf[:]); tr == nil {
			t.Error("preempting kernel read monitor memory during EMC")
		}
		if c.InMonitor() {
			t.Error("core still marked in-monitor during preemption")
		}
	})
	if err := w.Mon.EMCNop(c); err != nil {
		t.Fatal(err)
	}
	if !attackRan {
		t.Fatal("preemption hook did not run")
	}
	// After the EMC completes, normal-mode permissions are restored.
	if got := c.MSR(cpu.MSRPKRS); uint32(got) != monitor.NormalPKRS {
		t.Fatalf("PKRS after EMC = %#x, want %#x", got, monitor.NormalPKRS)
	}
}

// --- C5: attestation cannot be forged ---

func TestC5ForgedReportNotQuoted(t *testing.T) {
	w := ereborWorld(t)
	forged := &tdx.Report{} // not produced by the TDX module
	if _, err := w.QK.Sign(forged); err == nil {
		t.Fatal("quoting key signed a forged report")
	}
}

func TestC5WrongMonitorFailsAttestation(t *testing.T) {
	w := ereborWorld(t)
	c := w.Core()
	var rd [tdx.ReportDataSize]byte
	quote, err := w.Mon.IssueQuote(c, rd)
	if err != nil {
		t.Fatal(err)
	}
	// Verifying against a different expected measurement fails.
	var wrong [tdx.MeasurementSize]byte
	wrong[0] = 0xFF
	if _, err := attest.Verify(w.QK.Public(), quote, &wrong); err == nil {
		t.Fatal("quote verified against the wrong boot measurement")
	}
	// Correct measurement succeeds.
	mrtd := ExpectedMRTD(w.Mon.MonitorImage())
	if _, err := attest.Verify(w.QK.Public(), quote, &mrtd); err != nil {
		t.Fatalf("honest quote rejected: %v", err)
	}
}

func TestC5HandshakeBindingPreventsReplay(t *testing.T) {
	w := ereborWorld(t)
	c := w.Core()
	// A quote issued for one handshake must not satisfy another.
	hello1, _, err := secchan.NewClientHelloRand(nil)
	if err != nil {
		t.Fatal(err)
	}
	stale, err := w.Mon.IssueQuote(c, secchan.ReportDataFor(hello1, hello1.ClientPub))
	if err != nil {
		t.Fatal(err)
	}
	hello2, priv2, err := secchan.NewClientHelloRand(nil)
	if err != nil {
		t.Fatal(err)
	}
	sh := &secchan.ServerHello{ServerPub: hello1.ClientPub, Quote: stale}
	mrtd := ExpectedMRTD(w.Mon.MonitorImage())
	if _, err := secchan.ClientFinish(hello2, priv2, sh, w.QK.Public(), &mrtd); err == nil {
		t.Fatal("replayed quote accepted for a fresh handshake")
	}
}

// --- C6: nothing outside the sandbox can read its memory ---

func TestC6SingleMappingPolicy(t *testing.T) {
	w := ereborWorld(t)
	c := w.Core()
	// Build a sandbox with confined memory.
	ct, err := sandbox.Launch(w.K, sandbox.Spec{
		Name: "victim", Owner: mem.OwnerTaskBase + 1,
		LibOS: libos.Config{HeapPages: 16},
		Main: func(cc *sandbox.Container, os *libos.OS) {
			va, _ := os.Alloc(4096)
			os.Env.WriteMem(va, []byte("confined secret"))
			// Park: keep the sandbox alive.
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	w.K.Schedule()
	if ct.BootErr() != nil {
		t.Fatal(ct.BootErr())
	}
	// Find one of its confined frames.
	var confFrame mem.Frame
	found := false
	for f := mem.Frame(0); uint64(f) < w.Phys.NumFrames(); f++ {
		meta, _ := w.Phys.Meta(f)
		if meta.Allocated && meta.Pinned && meta.Owner == ct.Spec.Owner {
			confFrame = f
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no confined frame found")
	}
	// An attacker process asks the kernel to map that frame into its own
	// address space: the monitor must refuse (single-mapping policy).
	evilAS, err := w.Mon.EMCCreateAS(c, mem.OwnerTaskBase+9)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Mon.EMCUserMMU(c, evilAS, monitor.RingReq{Op: monitor.OpMap, VA: 0x5000_0000, Frame: confFrame, Flags: monitor.MapFlags{Writable: true}})
	if err == nil {
		t.Fatal("confined frame double-mapped into another address space")
	}
	if !strings.Contains(err.Error(), "single-mapping") && !strings.Contains(err.Error(), "confined") {
		t.Fatalf("unexpected denial reason: %v", err)
	}
	// Host/DMA access is blocked by the sEPT (frame is CVM-private).
	if _, err := w.TDX.HostReadGuestFrame(confFrame); err == nil {
		t.Fatal("host read confined memory")
	}
	// GHCI conversion to shared is refused too.
	if err := w.Mon.EMCMapGPA(c, confFrame, true); err == nil {
		t.Fatal("confined frame converted to CVM-shared")
	}
}

func TestC6SMAPBlocksKernelAccessToSandboxPages(t *testing.T) {
	w := ereborWorld(t)
	var secretVA paging.Addr
	ct, err := sandbox.Launch(w.K, sandbox.Spec{
		Name: "victim2", Owner: mem.OwnerTaskBase + 2,
		LibOS: libos.Config{HeapPages: 16},
		Main: func(cc *sandbox.Container, os *libos.OS) {
			va, _ := os.Alloc(4096)
			os.Env.WriteMem(va, []byte("top secret"))
			secretVA = va
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	w.K.Schedule()
	if secretVA == 0 {
		t.Fatal("sandbox did not run")
	}
	// Kernel context (ring 0) with the sandbox's address space active
	// (e.g. handling an interrupt taken in that context): a direct load of
	// the user page must be stopped by SMAP.
	c := w.Core()
	if err := w.Mon.EMCSwitchAS(c, ct.Task.P.AS.ASID); err != nil {
		t.Fatal(err)
	}
	c.SetRing(0)
	var buf [16]byte
	tr := c.Load(secretVA, buf[:])
	if tr == nil {
		t.Fatal("kernel read sandbox user memory (SMAP broken)")
	}
	if tr.Fault.Reason != paging.FaultSMAP {
		t.Fatalf("fault reason = %v, want smap", tr.Fault.Reason)
	}
	// And the monitor refuses user-copy into a data-holding sandbox; here
	// (pre-data) it is allowed but post-data tested via the kill paths.
	if err := w.Mon.EMCSwitchAS(c, 0); err != nil {
		t.Fatal(err)
	}
}

// --- C7/C8: sandbox cannot write outside or exit covertly ---

func TestC7WriteToSealedCommonKillsSandbox(t *testing.T) {
	w := ereborWorld(t)
	if err := sandbox.CreateCommon(w.K, "shared-db", make([]byte, 8192)); err != nil {
		t.Fatal(err)
	}
	ct, err := sandbox.Launch(w.K, sandbox.Spec{
		Name: "scribbler", Owner: mem.OwnerTaskBase + 3,
		LibOS:   libos.Config{HeapPages: 16},
		Commons: []sandbox.CommonRef{{Name: "shared-db"}},
		Main: func(cc *sandbox.Container, os *libos.OS) {
			e := os.Env
			base := cc.CommonVAs["shared-db"]
			// Read is fine.
			var b [8]byte
			e.ReadMem(base, b[:])
			// Receive data (seals the region), then attempt a write.
			_, n, _ := os.ReceiveInput(256, 4)
			if n == 0 {
				return
			}
			e.WriteMem(base, []byte("overwrite")) // must kill the sandbox
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Mon.QueueClientInput(ct.ID, []byte("secret")); err != nil {
		t.Fatal(err)
	}
	w.K.Schedule()
	info, _ := ct.Info()
	if !info.Destroyed {
		t.Fatal("sandbox survived writing a sealed common region")
	}
	if !strings.Contains(info.KillReason, "common") {
		t.Fatalf("kill reason: %q", info.KillReason)
	}
}

// TestSandboxIoctlRefusals: a LibOS declares confined memory and attaches
// common regions only through the /dev/erebor ioctl, so every refusal the
// monitor makes there reaches it as the errno the ABI names. A sandboxed
// task with no LibOS, holding its row's page budget, issues the raw calls;
// each must return its expected value, and no refused call may take a CMA
// frame.
func TestSandboxIoctlRefusals(t *testing.T) {
	// ioctlStep is one raw /dev/erebor call the task makes, and the value
	// the call must return.
	type ioctlStep struct {
		call func(e *kernel.Env) uint64
		want uint64
	}
	const budget = 4
	// pool is the CMA pool of a 64 MB world: a quarter of its frames.
	const pool = 64 << 20 / mem.PageSize / 4
	const page = paging.Addr(mem.PageSize)
	payload := libos.ConfinedBase
	input := []byte("client data")
	declare := func(va paging.Addr, npages uint64) func(*kernel.Env) uint64 {
		return func(e *kernel.Env) uint64 {
			return e.Syscall(abi.SysIoctl, abi.EreborDevFD, abi.IoctlDeclareConfined, uint64(va), npages)
		}
	}
	// attach names the region as the toolkit does; an unknown name reads
	// as region id 0, which no region holds.
	attach := func(base paging.Addr, region string, writable bool) func(*kernel.Env) uint64 {
		return func(e *kernel.Env) uint64 {
			rid, _ := e.K.Mon.CommonRegionID(region)
			w := uint64(0)
			if writable {
				w = 1
			}
			return e.Syscall(abi.SysIoctl, abi.EreborDevFD, abi.IoctlAttachCommon, uint64(base), rid, w)
		}
	}
	// install takes the queued client input into the payload page, which
	// seals every region the sandbox has attached.
	install := func(e *kernel.Env) uint64 {
		var hdr [16]byte
		binary.LittleEndian.PutUint64(hdr[0:8], uint64(payload)+64)
		binary.LittleEndian.PutUint64(hdr[8:16], 64)
		e.WriteMem(payload, hdr[:])
		return e.Syscall(abi.SysIoctl, abi.EreborDevFD, abi.IoctlInput, uint64(payload))
	}
	enomem, einval, eperm := abi.Errno(abi.ENOMEMNo), abi.Errno(abi.EINVALNo), abi.Errno(abi.EPERMNo)
	cases := []struct {
		name   string
		budget uint64
		steps  []ioctlStep
	}{
		{"declare within budget", budget, []ioctlStep{{declare(payload, budget), 0}}},
		{"declare over budget", budget, []ioctlStep{
			{declare(payload, budget-1), 0},
			{declare(payload+(budget-1)*page, 2), enomem},
		}},
		{"declare a wrapping page count", budget, []ioctlStep{
			{declare(payload, 1), 0},
			{declare(payload+page, ^uint64(0)), enomem},
		}},
		{"declare a page twice", budget, []ioctlStep{
			{declare(payload, 2), 0},
			{declare(payload+page, 1), enomem},
		}},
		{"declare in the kernel half", budget, []ioctlStep{{declare(monitor.DirectMapBase, 1), enomem}}},
		{"declare more than the CMA pool holds", 1 << 20, []ioctlStep{{declare(payload, pool+4), enomem}}},
		{"declare over an attachment", budget, []ioctlStep{
			{attach(libos.CommonBase, "a", false), 0},
			{declare(libos.CommonBase+page, 1), enomem},
		}},
		{"attach an unknown region id", budget, []ioctlStep{{attach(libos.CommonBase, "missing", false), einval}}},
		{"overlapping attach", budget, []ioctlStep{
			{attach(libos.CommonBase, "a", false), 0},
			{attach(libos.CommonBase+page, "b", false), eperm},
		}},
		{"attach over declared pages", budget, []ioctlStep{
			{declare(payload, 2), 0},
			{attach(payload+page, "a", false), eperm},
		}},
		{"attach in the kernel half", budget, []ioctlStep{{attach(monitor.DirectMapBase, "a", false), eperm}}},
		{"writable attach after a data install sealed the region", budget, []ioctlStep{
			{declare(payload, 1), 0},
			{attach(libos.CommonBase, "a", false), 0},
			{install, uint64(len(input))},
			{attach(libos.CommonBase+0x10_0000, "a", true), eperm},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := ereborWorld(t)
			for _, name := range []string{"a", "b"} {
				if err := sandbox.CreateCommon(w.K, name, make([]byte, 2*mem.PageSize)); err != nil {
					t.Fatal(err)
				}
			}
			cma, _ := w.Phys.RegionByName(monitor.RegionCMA)
			var rets []uint64
			var taken []int // CMA frames each call took
			_, id, err := w.K.SpawnSandboxed("ioctl", mem.OwnerTaskBase+4, tc.budget, func(e *kernel.Env) {
				for _, st := range tc.steps {
					free := cma.Free()
					rets = append(rets, st.call(e))
					taken = append(taken, free-cma.Free())
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Mon.QueueClientInput(id, input); err != nil {
				t.Fatal(err)
			}
			w.K.Schedule()
			if len(rets) != len(tc.steps) {
				t.Fatalf("the task made %d of its %d calls", len(rets), len(tc.steps))
			}
			for i, st := range tc.steps {
				if rets[i] != st.want {
					t.Errorf("call %d returned %d, want %d", i, int64(rets[i]), int64(st.want))
				}
				if abi.IsError(st.want) && taken[i] != 0 {
					t.Errorf("refused call %d took %d CMA frames", i, taken[i])
				}
			}
		})
	}
}

func TestC8UserInterruptsDisabled(t *testing.T) {
	w := ereborWorld(t)
	var sendErr error
	ct, err := sandbox.Launch(w.K, sandbox.Spec{
		Name: "uipi", Owner: mem.OwnerTaskBase + 4,
		LibOS: libos.Config{HeapPages: 16},
		Main: func(cc *sandbox.Container, os *libos.OS) {
			_, n, _ := os.ReceiveInput(256, 4)
			if n == 0 {
				return
			}
			// AV3: user-mode interrupt to a colluding process.
			sendErr = os.Env.SendUIPI(1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Mon.QueueClientInput(ct.ID, []byte("x")); err != nil {
		t.Fatal(err)
	}
	w.K.Schedule()
	info, _ := ct.Info()
	// senduipi with an invalid target table raises #GP; post-data that is a
	// software exception -> sandbox killed.
	if !info.Destroyed && sendErr == nil {
		t.Fatal("senduipi succeeded from a sandbox")
	}
}

func TestC8InterruptMasksSandboxRegisters(t *testing.T) {
	w := ereborWorld(t)
	leaked := uint64(0)
	// Replace the kernel's timer handler with a spy that records RAX.
	if err := w.Mon.EMCSetVector(w.Core(), cpu.VecTimer, func(c *cpu.Core, tr *cpu.Trap) {
		leaked |= c.Regs.GPR[cpu.RAX]
	}); err != nil {
		t.Fatal(err)
	}
	ct, err := sandbox.Launch(w.K, sandbox.Spec{
		Name: "long", Owner: mem.OwnerTaskBase + 5,
		LibOS: libos.Config{HeapPages: 16},
		Main: func(cc *sandbox.Container, os *libos.OS) {
			e := os.Env
			_, n, _ := os.ReceiveInput(256, 4)
			if n == 0 {
				return
			}
			// Put a "secret" in RAX and run long enough to be preempted.
			e.K.M.Cores[0].Regs.GPR[cpu.RAX] = 0xDEADBEEF
			for i := 0; i < 64; i++ {
				e.Charge(kernel.TimerQuantum / 8)
				e.K.M.Cores[0].Regs.GPR[cpu.RAX] = 0xDEADBEEF
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Mon.QueueClientInput(ct.ID, []byte("x")); err != nil {
		t.Fatal(err)
	}
	w.K.Schedule()
	if leaked&0xDEADBEEF == 0xDEADBEEF {
		t.Fatal("sandbox register state leaked to the kernel's interrupt handler")
	}
	info, _ := ct.Info()
	if info.Destroyed {
		t.Fatalf("benign preemption killed the sandbox: %s", info.KillReason)
	}
}

func TestC8VEExitAfterDataKills(t *testing.T) {
	w := ereborWorld(t)
	ct, err := sandbox.Launch(w.K, sandbox.Spec{
		Name: "hypercaller", Owner: mem.OwnerTaskBase + 6,
		LibOS: libos.Config{HeapPages: 16},
		Main: func(cc *sandbox.Container, os *libos.OS) {
			_, n, _ := os.ReceiveInput(256, 4)
			if n == 0 {
				return
			}
			// A non-cpuid #VE (e.g. forced MMIO) after data install: killed.
			os.Env.ForceVE("mmio-exfil")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Mon.QueueClientInput(ct.ID, []byte("x")); err != nil {
		t.Fatal(err)
	}
	w.K.Schedule()
	info, _ := ct.Info()
	if !info.Destroyed || !strings.Contains(info.KillReason, "VE") {
		t.Fatalf("sandbox not killed on #VE exit: %+v", info)
	}
}

func TestSessionEndScrubsConfinedMemory(t *testing.T) {
	w := ereborWorld(t)
	secret := []byte("PHI: patient 4411 HIV positive")
	var frames []mem.Frame
	ct, err := sandbox.Launch(w.K, sandbox.Spec{
		Name: "scrub", Owner: mem.OwnerTaskBase + 7,
		LibOS: libos.Config{HeapPages: 16},
		Main: func(cc *sandbox.Container, os *libos.OS) {
			e := os.Env
			buf, n, _ := os.ReceiveInput(4096, 4)
			if n == 0 {
				return
			}
			// Record where the secret physically lives.
			if f, ok := e.T.P.AS.Translate(buf); ok {
				frames = append(frames, f)
			}
			os.EndSession()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Mon.QueueClientInput(ct.ID, secret); err != nil {
		t.Fatal(err)
	}
	w.K.Schedule()
	if len(frames) == 0 {
		t.Fatal("no frame recorded")
	}
	for _, f := range frames {
		b, err := w.Phys.Bytes(f)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(b, secret) {
			t.Fatal("client data survived session-end scrubbing")
		}
	}
}
