package kernel

import "fmt"

// FileKind distinguishes device nodes from regular files.
type FileKind int

const (
	FileRegular FileKind = iota
	FileZero             // /dev/zero
	FileNull             // /dev/null
)

// File is one in-memory VFS node.
type File struct {
	Name string
	Kind FileKind
	Data []byte
}

// VFS is the kernel's in-memory filesystem.
type VFS struct {
	files map[string]*File
}

// NewVFS creates a filesystem with the standard device nodes.
func NewVFS() *VFS {
	v := &VFS{files: make(map[string]*File)}
	v.files["/dev/zero"] = &File{Name: "/dev/zero", Kind: FileZero}
	v.files["/dev/null"] = &File{Name: "/dev/null", Kind: FileNull}
	return v
}

// Create installs (or replaces) a regular file.
func (v *VFS) Create(path string, data []byte) *File {
	f := &File{Name: path, Kind: FileRegular, Data: append([]byte(nil), data...)}
	v.files[path] = f
	return f
}

// Open looks a path up.
func (v *VFS) Open(path string) (*File, error) {
	f, ok := v.files[path]
	if !ok {
		return nil, fmt.Errorf("vfs: %s: no such file", path)
	}
	return f, nil
}

// Stat returns a file's size.
func (v *VFS) Stat(path string) (int64, error) {
	f, ok := v.files[path]
	if !ok {
		return 0, fmt.Errorf("vfs: %s: no such file", path)
	}
	return int64(len(f.Data)), nil
}

// FDesc is an open file description.
type FDesc struct {
	file *File
	off  int
}

// Clone duplicates the descriptor (fork).
func (d *FDesc) Clone() *FDesc { return &FDesc{file: d.file, off: d.off} }

// Read fills buf and advances the offset; returns bytes read.
func (d *FDesc) Read(buf []byte) int {
	switch d.file.Kind {
	case FileZero:
		for i := range buf {
			buf[i] = 0
		}
		return len(buf)
	case FileNull:
		return 0
	}
	n := copy(buf, d.file.Data[min(d.off, len(d.file.Data)):])
	d.off += n
	return n
}

// Write stores buf at the offset (extending the file) and advances.
func (d *FDesc) Write(buf []byte) int {
	switch d.file.Kind {
	case FileZero, FileNull:
		return len(buf)
	}
	need := d.off + len(buf)
	if need > len(d.file.Data) {
		nd := make([]byte, need)
		copy(nd, d.file.Data)
		d.file.Data = nd
	}
	copy(d.file.Data[d.off:], buf)
	d.off += len(buf)
	return len(buf)
}
