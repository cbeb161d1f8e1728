package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile runtime/pprof writes is a gzipped profile.proto message.
// selfByPackage decodes just the parts that give self time: each sample's
// leaf location, that location's innermost (inlined-into-nothing-further)
// function, and the function's name. It needs no dependency beyond the
// standard library.

// Profile.proto field numbers.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

// pbField is one decoded protobuf field: a varint or a length-delimited
// payload.
type pbField struct {
	num    int
	varint uint64
	bytes  []byte
	isLen  bool
}

// pbFields splits a protobuf message into its fields. Fixed-width fields
// (wire types 1 and 5) do not occur in profile.proto and are rejected.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return nil, errors.New("pprof: bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			f.varint, n = pbVarint(b)
			if n == 0 {
				return nil, errors.New("pprof: bad varint")
			}
			b = b[n:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return nil, errors.New("pprof: bad length")
			}
			f.bytes, f.isLen = b[n:n+int(l)], true
			b = b[n+int(l):]
		default:
			return nil, fmt.Errorf("pprof: unexpected wire type %d", key&7)
		}
		out = append(out, f)
	}
	return out, nil
}

// pbVarint decodes one varint, returning it and its length (0 on error).
func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbUints reads a repeated integer field that may be packed (one
// length-delimited run of varints) or not (one varint per field).
func pbUints(f pbField, dst []uint64) ([]uint64, error) {
	if !f.isLen {
		return append(dst, f.varint), nil
	}
	for b := f.bytes; len(b) > 0; {
		v, n := pbVarint(b)
		if n == 0 {
			return nil, errors.New("pprof: bad packed varint")
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

// selfByPackage decodes a gzipped CPU profile and returns the sampled CPU
// nanoseconds whose leaf frame is in each package group (see pkgGroup).
func selfByPackage(prof []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{} // function id -> string index
	leafFunc := map[uint64]uint64{} // location id -> innermost function id
	type sample struct {
		loc   uint64
		value uint64
	}
	var samples []sample
	for _, f := range top {
		switch f.num {
		case fProfileStrings:
			strs = append(strs, string(f.bytes))
		case fProfileFunction:
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, g := range sub {
				switch g.num {
				case fFunctionID:
					id = g.varint
				case fFunctionName:
					name = g.varint
				}
			}
			funcName[id] = name
		case fProfileLocation:
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, fn uint64
			haveLine := false
			for _, g := range sub {
				switch g.num {
				case fLocationID:
					id = g.varint
				case fLocationLine:
					// The first Line is the innermost inlined function.
					if haveLine {
						continue
					}
					line, err := pbFields(g.bytes)
					if err != nil {
						return nil, err
					}
					for _, l := range line {
						if l.num == fLineFunction {
							fn, haveLine = l.varint, true
						}
					}
				}
			}
			leafFunc[id] = fn
		case fProfileSample:
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var locs, vals []uint64
			for _, g := range sub {
				switch g.num {
				case fSampleLocation:
					if locs, err = pbUints(g, locs); err != nil {
						return nil, err
					}
				case fSampleValue:
					if vals, err = pbUints(g, vals); err != nil {
						return nil, err
					}
				}
			}
			if len(locs) > 0 && len(vals) > 0 {
				// The last value of a CPU sample is its CPU nanoseconds.
				samples = append(samples, sample{loc: locs[0], value: vals[len(vals)-1]})
			}
		}
	}
	byPkg := map[string]float64{}
	for _, s := range samples {
		name := ""
		if idx, ok := funcName[leafFunc[s.loc]]; ok && int(idx) < len(strs) {
			name = strs[idx]
		}
		byPkg[pkgGroup(name)] += float64(s.value)
	}
	return byPkg, nil
}

// profiledPkgs are the package groups host.self_frac reports; any other
// package lands in "other".
var profiledPkgs = []string{
	"runtime", "sim", "heap", "core", "kernel", "netsim", "fcgi", "ipcsim",
	"httpd", "apps", "cache", "cksum", "fsim", "obs", "other",
}

// pkgGroup maps a symbol name such as "iolite/internal/sim.(*Engine).Step"
// to its package group.
func pkgGroup(sym string) string {
	pkg := sym
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "container/heap":
		return "heap"
	case strings.HasPrefix(pkg, "iolite/internal/"):
		name := strings.TrimPrefix(pkg, "iolite/internal/")
		for _, p := range profiledPkgs {
			if p == name {
				return p
			}
		}
	}
	return "other"
}
