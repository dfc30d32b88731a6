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

// This file reads the CPU profiles runtime/pprof writes (gzipped
// profile.proto) with a minimal protobuf decoder, and buckets every
// sample into one layer of the stack.

// layers are the stack's layers, named after their packages. A sample
// belongs to the innermost frame whose package maps to a layer; samples
// with no repro/internal frame at all (background GC, the scheduler,
// net/http connection goroutines, the benchmark's own client code) land
// in "runtime".
var layers = []string{
	"sim", "machine", "heartbeat", "linux", "nautilus", "omp", "coherence",
	"farmem", "mem", "interp", "passes", "carat", "virtine", "cache", "exp",
	"core", "serve", "runtime",
}

// layerOf maps a repro/internal package to its layer. The compiler's IR
// and analyses count as passes, and the kernel generators feeding them
// as well; helper packages with no layer of their own (stats, model,
// chaos, pipeline, pik) are transparent, so their samples go to the
// innermost layer frame that called them.
func layerOf(pkg string) (string, bool) {
	switch pkg {
	case "analysis", "ir", "workloads":
		return "passes", true
	case "stats", "model", "chaos", "pipeline", "pik":
		return "", false
	}
	for _, l := range layers {
		if l == pkg {
			return l, true
		}
	}
	return "", false
}

const internalPrefix = "repro/internal/"

// internalPkg returns the repro/internal package a function name belongs
// to, e.g. "sim" for "repro/internal/sim.(*Engine).Step".
func internalPkg(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest, true
}

// profile is the part of a CPU profile the layer split needs: per sample
// its CPU nanoseconds and its frames' function names, innermost first
// (inlined frames expanded).
type profile struct {
	samples []sample
}

type sample struct {
	cpuNS  int64
	frames []string
}

// layerSplit is a profile bucketed by layer.
type layerSplit struct {
	cpuNS   map[string]int64 // layer → CPU ns
	totalNS int64            // every sample's CPU ns
	// waitNS is the CPU time in the sharded engine's barrier and
	// spin-wait (anywhere on the stack), a subset of the sim bucket.
	waitNS int64
}

// split buckets every sample into exactly one layer and checks that the
// buckets add up to the profile total.
func (p *profile) split() (layerSplit, error) {
	ls := layerSplit{cpuNS: make(map[string]int64, len(layers))}
	for _, s := range p.samples {
		ls.totalNS += s.cpuNS
		layer := "runtime"
		for _, fn := range s.frames {
			pkg, ok := internalPkg(fn)
			if !ok {
				continue
			}
			if l, ok := layerOf(pkg); ok {
				layer = l
				break
			}
		}
		ls.cpuNS[layer] += s.cpuNS
		for _, fn := range s.frames {
			if fn == "repro/internal/sim.(*ShardedEngine).barrier" || fn == "repro/internal/sim.spinUntil" {
				ls.waitNS += s.cpuNS
				break
			}
		}
	}
	var sum int64
	for _, v := range ls.cpuNS {
		sum += v
	}
	if sum != ls.totalNS {
		return ls, fmt.Errorf("profile: layer buckets sum to %d ns, profile total is %d ns", sum, ls.totalNS)
	}
	return ls, nil
}

// parseProfile decodes a gzipped profile.proto as written by
// runtime/pprof.StartCPUProfile.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		sampleTypes [][2]int64 // (type, unit) string indices
		samples     []rawSample
		locLines    = map[uint64][]uint64{} // location → function IDs, innermost first
		funcName    = map[uint64]int64{}    // function → string index
		strs        []string
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var vt [2]int64
			if err := fields(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			sampleTypes = append(sampleTypes, vt)
		case 2: // sample
			var s rawSample
			if err := fields(b, func(n, w int, v uint64, bb []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, w, v, bb)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, w, v, bb); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := fields(b, func(n, _ int, v uint64, bb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(bb, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locLines[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := fields(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	cpu := -1
	for i, vt := range sampleTypes {
		if str(vt[0]) == "cpu" && str(vt[1]) == "nanoseconds" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	p := &profile{samples: make([]sample, 0, len(samples))}
	for _, rs := range samples {
		if cpu >= len(rs.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		s := sample{cpuNS: rs.values[cpu]}
		for _, loc := range rs.locs {
			for _, fid := range locLines[loc] {
				s.frames = append(s.frames, str(funcName[fid]))
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// fields walks one protobuf message, calling fn for every field with its
// number, wire type, and either its varint value or its bytes.
func fields(b []byte, fn func(num, wire int, v uint64, bytes []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0: // varint
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, wire, v, nil); err != nil {
				return err
			}
		case 1: // fixed64
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			body := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, wire, 0, body); err != nil {
				return err
			}
		case 5: // fixed32
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
