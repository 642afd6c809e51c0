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

// stack is one CPU profile sample: its function names from the leaf
// (innermost, index 0) to the root, and how many samples it stands for.
type stack struct {
	frames []string
	count  int64
}

// parseProfile decodes a gzip-compressed pprof profile, as
// runtime/pprof writes it, into its stacks. It reads only the fields
// attribution needs: samples, locations, functions and the string
// table.
func parseProfile(data []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type sampleRec struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []sampleRec
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sampleRec
			first := true
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendUints(s.locs, wire, v, b)
				case 2:
					if vals := appendUints(nil, wire, v, b); first && len(vals) > 0 {
						s.count = int64(vals[0])
						first = false
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				name := "?"
				if i := funcNames[fn]; i >= 0 && int(i) < len(strs) {
					name = strs[i]
				}
				st.frames = append(st.frames, name)
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the protobuf fields of one message, handing each to
// fn with its number and wire type: v holds a varint or fixed value, b
// a length-delimited payload.
func eachField(buf []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errTruncated
			}
			v, buf = binary.LittleEndian.Uint64(buf), buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errTruncated
			}
			v, buf = uint64(binary.LittleEndian.Uint32(buf)), buf[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field, packed or not.
func appendUints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

const internalPrefix = "vwchar/internal/"

// Layer buckets that are not program packages.
const (
	layerBench   = "bench"   // the benchmark's own frames, no program frame below
	layerRuntime = "runtime" // no vwchar frame at all: GC workers, scheduler
)

// groups are inclusive sub-shares: a sample counts toward a group when
// any frame of its stack is one of the group's functions.
var groups = []struct {
	name  string
	funcs []string
}{
	{"rubisdb.decode", []string{internalPrefix + "rubisdb.DecodeRow", internalPrefix + "rubisdb.(*Heap).Fetch"}},
	{"rubisdb.bulkload", []string{internalPrefix + "rubisdb.(*Table).BulkInsert"}},
	{"rng.seed", []string{internalPrefix + "rng.(*Source).Stream", internalPrefix + "rng.NewStream", "math/rand.(*rngSource).Seed"}},
	{"rubis.populate", []string{internalPrefix + "rubis.NewSnapshot", internalPrefix + "rubis.NewApp"}},
	{"runtime.malloc", []string{"runtime.mallocgc"}},
}

// attribution is a profile's samples charged to layers.
type attribution struct {
	Total  int64            `json:"total"`
	Layers map[string]int64 `json:"layers"`
	Groups map[string]int64 `json:"groups"`
}

// layerOf returns the vwchar/internal package a function belongs to.
func layerOf(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest, rest != ""
}

// attribute charges each sample to the innermost vwchar/internal frame
// of its stack, so runtime frames above it (allocation, GC assist)
// count to the layer that called them. A stack with no such frame goes
// to the benchmark when one of its frames is the benchmark's own, and
// to the runtime otherwise.
func attribute(stacks []stack) attribution {
	a := attribution{Layers: map[string]int64{}, Groups: map[string]int64{}}
	for _, s := range stacks {
		a.Total += s.count
		layer, bench := "", false
		for _, fn := range s.frames {
			if l, ok := layerOf(fn); ok {
				layer = l
				break
			}
			if strings.HasPrefix(fn, "main.") {
				bench = true
			}
		}
		switch {
		case layer != "":
		case bench:
			layer = layerBench
		default:
			layer = layerRuntime
		}
		a.Layers[layer] += s.count
		for _, g := range groups {
			if hasAny(s.frames, g.funcs) {
				a.Groups[g.name] += s.count
			}
		}
	}
	return a
}

func hasAny(frames, funcs []string) bool {
	for _, fn := range frames {
		for _, f := range funcs {
			if fn == f {
				return true
			}
		}
	}
	return false
}

// share is n as a fraction of the profile's samples.
func (a attribution) share(n int64) float64 {
	if a.Total == 0 {
		return 0
	}
	return float64(n) / float64(a.Total)
}
