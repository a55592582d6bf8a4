//go:build linux

package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// The CPU fold charges every sample of a harness-started CPU profile to
// one layer, so that "where did the time go" is answered in the repo's
// own package names without reading a flame graph.
//
// Walking a sample's stack from the leaf outwards, the first frame of a
// repository package decides:
//   - ritw/internal/<pkg>: the layer is <pkg> — unless only syscall and
//     poller frames lay beneath it, in which case the time is the
//     kernel's socket path and the layer is "sockets";
//   - the harness itself (package main): "harness", which is left out
//     of every share, since it is not part of the system measured.
// A stack with no repository frame at all is the Go runtime's own work;
// the background mark workers among it are split out as "gc".

const (
	layerHarness = "harness"
	layerSockets = "sockets"
	layerGC      = "gc"
	layerRuntime = "runtime"
	repoPrefix   = "ritw/internal/"
)

// classify maps one stack (function names, leaf first) to a layer.
func classify(stack []string) string {
	kernel := false
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "ritw/bench."): // the latter under go test
			return layerHarness
		case strings.HasPrefix(fn, repoPrefix):
			if kernel {
				return layerSockets
			}
			pkg, _, _ := strings.Cut(fn[len(repoPrefix):], ".")
			return pkg
		case strings.HasPrefix(fn, "syscall.") || strings.HasPrefix(fn, "internal/poll.") ||
			strings.HasPrefix(fn, "internal/runtime/syscall."):
			kernel = true
		}
	}
	for _, fn := range stack {
		if fn == "runtime.gcBgMarkWorker" {
			return layerGC
		}
	}
	return layerRuntime
}

// cpuFold is the share of profiled CPU time each layer took, the
// harness's own samples excluded from the total.
type cpuFold map[string]float64

// profileCPU runs fn under the CPU profiler and folds the result.
func profileCPU(fn func()) (cpuFold, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	fn()
	pprof.StopCPUProfile()
	return foldProfile(buf.Bytes())
}

// foldProfile decodes a gzipped pprof profile and folds its samples.
func foldProfile(gz []byte) (cpuFold, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	byLayer := make(map[string]int64)
	var total int64
	var stack []string
	for _, s := range p.samples {
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fnID := range p.locFuncs[loc] {
				stack = append(stack, p.strings[p.funcName[fnID]])
			}
		}
		layer := classify(stack)
		if layer == layerHarness {
			continue
		}
		byLayer[layer] += s.value
		total += s.value
	}
	fold := make(cpuFold, len(byLayer))
	for l, v := range byLayer {
		fold[l] = float64(v) / float64(max(total, 1))
	}
	return fold, nil
}

// What follows reads just enough of pprof's profile.proto — samples,
// locations, functions and the string table — to name the frames of
// each stack. The format is protobuf; the standard library has the
// writer (runtime/pprof) but no reader.

type profSample struct {
	locs  []uint64
	value int64 // last value of the sample: CPU nanoseconds
}

type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

var errProto = errors.New("cpu profile: malformed protobuf")

// protoField is one decoded field: a varint value or a byte payload.
type protoField struct {
	num  int
	wire int
	v    uint64
	b    []byte
}

// nextField decodes the field at the front of b.
func nextField(b []byte) (f protoField, rest []byte, err error) {
	key, n := uvarint(b)
	if n <= 0 {
		return f, nil, errProto
	}
	b = b[n:]
	f.num, f.wire = int(key>>3), int(key&7)
	switch f.wire {
	case 0:
		v, n := uvarint(b)
		if n <= 0 {
			return f, nil, errProto
		}
		f.v, b = v, b[n:]
	case 1:
		if len(b) < 8 {
			return f, nil, errProto
		}
		b = b[8:]
	case 2:
		l, n := uvarint(b)
		if n <= 0 || uint64(len(b)-n) < l {
			return f, nil, errProto
		}
		f.b, b = b[n:n+int(l)], b[n+int(l):]
	case 5:
		if len(b) < 4 {
			return f, nil, errProto
		}
		b = b[4:]
	default:
		return f, nil, errProto
	}
	return f, b, nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// repeated appends the values of a repeated varint field, which may
// arrive packed (one payload) or one value per field.
func repeated(dst []uint64, f protoField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	for b := f.b; len(b) > 0; {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

// each calls fn for every field of message b.
func each(b []byte, fn func(protoField) error) error {
	for len(b) > 0 {
		f, rest, err := nextField(b)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			return err
		}
		b = rest
	}
	return nil
}

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: make(map[uint64][]uint64), funcName: make(map[uint64]int64)}
	err := each(b, func(f protoField) error {
		switch f.num {
		case 2: // Sample
			var s profSample
			var values []uint64
			err := each(f.b, func(g protoField) (err error) {
				switch g.num {
				case 1:
					s.locs, err = repeated(s.locs, g)
				case 2:
					values, err = repeated(values, g)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.value = int64(values[len(values)-1])
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := each(f.b, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.v
				case 4: // Line
					return each(g.b, func(h protoField) error {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			err := each(f.b, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = int64(g.v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(f.b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || int(idx) >= len(p.strings) {
			return nil, errProto
		}
	}
	return p, nil
}
