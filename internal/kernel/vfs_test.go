package kernel

import "testing"

func TestVFSBasics(t *testing.T) {
	v := NewVFS()
	if _, err := v.Open("/dev/zero"); err != nil {
		t.Fatal("no /dev/zero")
	}
	if _, err := v.Open("/missing"); err == nil {
		t.Fatal("opened missing file")
	}
	v.Create("/etc/conf", []byte("key=value"))
	if sz, err := v.Stat("/etc/conf"); err != nil || sz != 9 {
		t.Fatalf("stat: %d %v", sz, err)
	}
}

func TestFDescReadWrite(t *testing.T) {
	v := NewVFS()
	f := v.Create("/f", []byte("hello"))
	d := &FDesc{file: f}
	buf := make([]byte, 3)
	if n := d.Read(buf); n != 3 || string(buf) != "hel" {
		t.Fatalf("read %d %q", n, buf)
	}
	if n := d.Read(buf); n != 2 || string(buf[:2]) != "lo" {
		t.Fatalf("read2 %d %q", n, buf[:2])
	}
	if n := d.Read(buf); n != 0 {
		t.Fatalf("read at EOF: %d", n)
	}
	// Write at the end extends.
	if n := d.Write([]byte(" world")); n != 6 {
		t.Fatalf("write %d", n)
	}
	if string(f.Data) != "hello world" {
		t.Fatalf("file now %q", f.Data)
	}
	// Clone shares the file but not the offset.
	d.off = 0
	c := d.Clone()
	d.Read(buf)
	if c.off != 0 {
		t.Fatal("clone shares offset")
	}
}

func TestDeviceNodes(t *testing.T) {
	v := NewVFS()
	z, _ := v.Open("/dev/zero")
	dz := &FDesc{file: z}
	buf := []byte{1, 2, 3}
	if n := dz.Read(buf); n != 3 || buf[0] != 0 || buf[2] != 0 {
		t.Fatal("/dev/zero broken")
	}
	if n := dz.Write([]byte("x")); n != 1 {
		t.Fatal("/dev/zero write")
	}
	nl, _ := v.Open("/dev/null")
	dn := &FDesc{file: nl}
	if n := dn.Read(buf); n != 0 {
		t.Fatal("/dev/null returned data")
	}
	if n := dn.Write([]byte("discard")); n != 7 {
		t.Fatal("/dev/null write")
	}
}

func TestBuildKernelImageVariants(t *testing.T) {
	clean := BuildKernelImage(ImageOptions{Instrumented: true})
	dirty := BuildKernelImage(ImageOptions{Instrumented: false})
	if len(clean) == 0 || len(dirty) == 0 {
		t.Fatal("empty images")
	}
	if string(clean) == string(dirty) {
		t.Fatal("instrumentation has no effect")
	}
	// Deterministic builds.
	if string(clean) != string(BuildKernelImage(ImageOptions{Instrumented: true})) {
		t.Fatal("image build not deterministic")
	}
	// Size knob works.
	big := BuildKernelImage(ImageOptions{Instrumented: true, TextKB: 256})
	if len(big) <= len(clean) {
		t.Fatal("TextKB ignored")
	}
}
