package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// modulePrefix is the import-path prefix of the simulator's packages; a
// host CPU sample belongs to the layer of its innermost frame under it.
const modulePrefix = "github.com/asterisc-release/erebor-go/internal/"

var errBadProto = errors.New("pprof: malformed protobuf")

// hostSample is one runtime/pprof CPU sample: the CPU time it stands for
// and its call stack as function names, innermost first, inlined frames
// expanded.
type hostSample struct {
	nanos int64
	stack []string
}

// pbField is one decoded protobuf field: v holds varint and fixed-width
// values, b the payload of a length-delimited one.
type pbField struct {
	num, wire int
	v         uint64
	b         []byte
}

// pbWalk calls fn for every top-level field of the message in b.
func pbWalk(b []byte, fn func(f pbField) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.v, n = binary.Uvarint(b); n <= 0 {
				return errBadProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProto
			}
			f.v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errBadProto
			}
			f.b, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProto
			}
			f.v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errBadProto
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// pbInts appends the values of a repeated integer field, which the encoder
// may write packed or one value per field.
func pbInts(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	if f.wire != 2 {
		return dst, errBadProto
	}
	for b := f.b; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errBadProto
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

// parsePprof decodes the samples of a (gzipped) runtime/pprof CPU profile.
// It reads only what layer attribution needs: sample types, samples,
// locations with their inlined lines, functions and the string table.
func parsePprof(data []byte) ([]hostSample, error) {
	if len(data) > 1 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
	}
	var (
		strs     []string
		types    []uint64 // sample_type[i].type as a string index
		rawSamps []pbField
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]uint64{}   // function id -> name string index
	)
	err := pbWalk(data, func(f pbField) error {
		switch f.num {
		case 1: // sample_type
			return pbWalk(f.b, func(g pbField) error {
				if g.num == 1 {
					types = append(types, g.v)
				}
				return nil
			})
		case 2: // sample
			rawSamps = append(rawSamps, f)
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbWalk(f.b, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 4: // line
					return pbWalk(g.b, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := pbWalk(f.b, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = g.v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(f.b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpuIdx := -1
	for i, t := range types {
		if str(t) == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, fmt.Errorf("pprof: no cpu sample type (is this a CPU profile?)")
	}
	out := make([]hostSample, 0, len(rawSamps))
	for _, f := range rawSamps {
		var locs, vals []uint64
		err := pbWalk(f.b, func(g pbField) error {
			var err error
			switch g.num {
			case 1:
				locs, err = pbInts(locs, g)
			case 2:
				vals, err = pbInts(vals, g)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		if cpuIdx >= len(vals) {
			return nil, errBadProto
		}
		s := hostSample{nanos: int64(vals[cpuIdx])}
		for _, l := range locs {
			for _, fn := range locFuncs[l] {
				s.stack = append(s.stack, str(funcName[fn]))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// hostLayer names the layer a sample's CPU time belongs to. The monitor's
// audit sweeps (Monitor.Audit and the wd* watchdog methods) count as the
// watchdog wherever they sit on the stack, since they call into paging,
// mem and egress helpers. Otherwise the innermost frame from this module
// decides, and a sample with no such frame (GC, scheduler, the
// benchmark's own code) counts as runtime.
func hostLayer(stack []string) string {
	layer := ""
	for _, fn := range stack {
		if !strings.HasPrefix(fn, modulePrefix) {
			continue
		}
		rest := fn[len(modulePrefix):]
		if strings.HasPrefix(rest, "monitor.(*Monitor).Audit") || strings.HasPrefix(rest, "monitor.(*Monitor).wd") {
			return "watchdog"
		}
		if layer == "" {
			layer = packageLayer(rest)
		}
	}
	if layer == "" {
		return "runtime"
	}
	return layer
}

// packageLayer maps a function name below modulePrefix to its layer: the
// package's first path element, with the observability packages grouped
// as obs and packages that no layer metric names grouped as other.
func packageLayer(fn string) string {
	pkg := fn
	if i := strings.IndexAny(pkg, "/."); i >= 0 {
		pkg = pkg[:i]
	}
	switch pkg {
	case "trace", "metrics", "prof", "critpath", "slo":
		return "obs"
	case "task": // the kernel's task coroutines
		return "kernel"
	case "attest", "secchan", "egress", "serve", "monitor", "kernel", "cpu",
		"paging", "mem", "sandbox", "libos", "workloads", "harness":
		return pkg
	}
	return "other"
}

// hostLayers sums the CPU nanoseconds of a profile per layer.
func hostLayers(samples []hostSample) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range samples {
		out[hostLayer(s.stack)] += s.nanos
	}
	return out
}
