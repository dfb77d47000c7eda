package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file attributes CPU-profile samples to the repository's modules.
// A sample is charged to the innermost frame that belongs to the system:
// a memphis/internal/<module> package, the memphis facade, or this
// benchmark's own code. Samples with no such frame are charged to GC when a
// frame is a GC or sweeper worker, and to "other" otherwise.

const (
	bucketGC      = "go.gc"
	bucketOther   = "other"
	bucketFacade  = "memphis"
	bucketHarness = "perfbench"
	internalPath  = "memphis/internal/"
)

// attribution is CPU time per bucket from one or more profiles.
type attribution struct {
	nanos   map[string]int64
	total   int64
	samples int64
}

func newAttribution() *attribution { return &attribution{nanos: map[string]int64{}} }

// seconds returns the CPU seconds charged to a bucket.
func (a *attribution) seconds(bucket string) float64 { return float64(a.nanos[bucket]) / 1e9 }

// share returns a bucket's share of all charged CPU time.
func (a *attribution) share(bucket string) float64 {
	return ratio(float64(a.nanos[bucket]), float64(a.total))
}

// table renders every bucket's self time and share, largest first.
func (a *attribution) table(title string) []string {
	names := make([]string, 0, len(a.nanos))
	for n := range a.nanos {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if a.nanos[names[i]] != a.nanos[names[j]] {
			return a.nanos[names[i]] > a.nanos[names[j]]
		}
		return names[i] < names[j]
	})
	lines := []string{fmt.Sprintf("%s: %d samples, %.3f CPU s", title, a.samples, float64(a.total)/1e9)}
	for _, n := range names {
		lines = append(lines, fmt.Sprintf("  %-12s %9.3f s %6.1f%%", n, a.seconds(n), 100*a.share(n)))
	}
	return lines
}

// bucketOf names the bucket of a sample from its frames, innermost first.
func bucketOf(frames []string) string {
	for _, f := range frames {
		switch {
		case strings.HasPrefix(f, internalPath):
			mod := f[len(internalPath):]
			if i := strings.IndexAny(mod, "./"); i >= 0 {
				mod = mod[:i]
			}
			return mod
		case strings.HasPrefix(f, "memphis."):
			return bucketFacade
		case strings.HasPrefix(f, "main."), strings.HasPrefix(f, "memphis/perfbench."):
			// The benchmark is package main in its binary and
			// memphis/perfbench in its test binary.
			return bucketHarness
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gc") || f == "runtime.bgsweep" || f == "runtime.bgscavenge" {
			return bucketGC
		}
	}
	return bucketOther
}

// add charges every sample of a gzipped CPU profile (the runtime/pprof
// format) to its bucket.
func (a *attribution) add(gz []byte) error {
	if len(gz) == 0 {
		return nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return err
	}
	// CPU profiles carry [samples/count, cpu/nanoseconds].
	valueIdx := len(p.sampleTypes) - 1
	if valueIdx < 0 {
		return errors.New("profile: no sample types")
	}
	var frames []string
	for _, s := range p.samples {
		if valueIdx >= len(s.values) {
			return errors.New("profile: sample without a value")
		}
		frames = frames[:0]
		for _, id := range s.locations {
			for _, fn := range p.locations[id] {
				frames = append(frames, p.strings[p.functions[fn]])
			}
		}
		v := s.values[valueIdx]
		a.nanos[bucketOf(frames)] += v
		a.total += v
		a.samples += s.values[0]
	}
	return nil
}

// profile is the part of a pprof profile the attribution needs.
type profile struct {
	sampleTypes []int64 // type string indices
	samples     []profSample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64]int64    // function id -> name string index
	strings     []string
}

type profSample struct {
	locations []uint64
	values    []int64
}

// decodeProfile parses the protocol-buffer encoding of a pprof profile
// (github.com/google/pprof/proto/profile.proto), reading only the fields
// the attribution uses: Profile.sample_type (1), sample (2), location (4),
// function (5) and string_table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := walkFields(b, func(field int, wire int, v uint64, sub []byte) error {
		switch field {
		case 1:
			return walkFields(sub, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					p.sampleTypes = append(p.sampleTypes, int64(v))
				}
				return nil
			})
		case 2:
			var s profSample
			err := walkFields(sub, func(f, w int, v uint64, packed []byte) error {
				switch f {
				case 1:
					return eachVarint(w, v, packed, func(x uint64) { s.locations = append(s.locations, x) })
				case 2:
					return eachVarint(w, v, packed, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := walkFields(sub, func(f, _ int, v uint64, line []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return walkFields(line, func(lf, _ int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := walkFields(sub, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.functions {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, errors.New("profile: function name out of range")
		}
	}
	return p, nil
}

// walkFields calls fn for every field of a protocol-buffer message: the
// value for varint fields, the payload for length-delimited ones. Fixed-size
// fields are skipped.
func walkFields(b []byte, fn func(field, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: truncated field")
			}
			sub := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, wire, 0, sub); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// eachVarint visits a repeated varint field in either encoding: one value
// per field, or packed into a length-delimited payload.
func eachVarint(wire int, v uint64, packed []byte, fn func(uint64)) error {
	if wire == 0 {
		fn(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(x)
		packed = packed[n:]
	}
	return nil
}
