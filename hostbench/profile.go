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

// This file reads the CPU profile runtime/pprof writes (gzipped
// profile.proto) far enough to split host time by simulator module. Only
// the fields needed for that are decoded: samples with their stacks and
// labels, locations, functions, and the string table.

// modulePrefix is the import-path prefix of the simulator's layers.
const modulePrefix = "vdom/internal/"

// profSample is one decoded sample: its count, its stack as function
// names from leaf to root, and its string labels.
type profSample struct {
	count  int64
	stack  []string
	labels map[string]string
}

// hostSplit is the CPU time of one profile split by simulator module.
type hostSplit struct {
	// ms maps a module ("pagetable", "tlb", ..., "gc", "other") to the
	// CPU milliseconds attributed to it.
	ms map[string]float64
	// inclusiveMS is the CPU milliseconds of samples whose stack
	// contains the function splitProfile was asked about.
	inclusiveMS float64
}

// gcFrame reports whether a frame belongs to the garbage collector.
func gcFrame(fn string) bool {
	switch fn {
	case "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject", "runtime.sweepone":
		return true
	}
	return strings.HasPrefix(fn, "runtime.gc")
}

// moduleOf names the simulator module of a function, or "" when the
// function is not the simulator's.
func moduleOf(fn string) string {
	if !strings.HasPrefix(fn, modulePrefix) {
		return ""
	}
	rest := fn[len(modulePrefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// splitProfile attributes every sample that keep accepts. A sample whose
// stack runs garbage-collector code counts as "gc"; otherwise it goes to
// the innermost simulator module on its stack, so a module's time
// includes the runtime and library calls it makes directly; samples
// outside the simulator count as "other". msPerSample converts counts.
// The split also totals the samples that run inclusiveFn.
func splitProfile(samples []profSample, msPerSample float64, keep func(profSample) bool, inclusiveFn string) hostSplit {
	out := hostSplit{ms: map[string]float64{}}
	for _, s := range samples {
		gc := false
		for _, fn := range s.stack {
			if gcFrame(fn) {
				gc = true
				break
			}
		}
		if !gc && !keep(s) {
			continue
		}
		ms := float64(s.count) * msPerSample
		mod := "other"
		if gc {
			mod = "gc"
		} else {
			for _, fn := range s.stack {
				if m := moduleOf(fn); m != "" {
					mod = m
					break
				}
			}
		}
		out.ms[mod] += ms
		for _, fn := range s.stack {
			if fn == inclusiveFn {
				out.inclusiveMS += ms
				break
			}
		}
	}
	return out
}

// parseProfile decodes a gzipped profile.proto.
func parseProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []uint64
		labels [][2]uint64 // (key, str) string-table indices
	}
	var (
		strs    []string
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnNames = map[uint64]uint64{}   // function id -> name index
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					s.values = appendPacked(s.values, v, b)
				case 3:
					var key, str uint64
					if err := eachField(b, func(num int, v uint64, _ []byte) error {
						switch num {
						case 1:
							key = v
						case 2:
							str = v
						}
						return nil
					}); err != nil {
						return err
					}
					s.labels = append(s.labels, [2]uint64{key, str})
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnNames[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
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
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{labels: map[string]string{}}
		if len(s.values) > 0 {
			ps.count = int64(s.values[0])
		}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				ps.stack = append(ps.stack, str(fnNames[fn]))
			}
		}
		for _, l := range s.labels {
			ps.labels[str(l[0])] = str(l[1])
		}
		out = append(out, ps)
	}
	return out, nil
}

var errBadProto = errors.New("profile: malformed protobuf")

// eachField walks the top-level fields of one protobuf message, passing
// varint values as v and length-delimited payloads as b.
func eachField(b []byte, f func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		b = b[n:]
		num, typ := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch typ {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errBadProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProto
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProto
			}
			b = b[4:]
		default:
			return errBadProto
		}
		if err := f(num, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that arrived either as
// one varint (v) or as a packed run (b).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
