package main

// A minimal reader of the runtime/pprof CPU profile format (gzipped
// profile.proto), enough to fold samples into per-package self time
// without a module dependency. Field numbers follow
// github.com/google/pprof/proto/profile.proto.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuPackages are the layers self time is folded into; any other package
// (standard library, the benchmark itself, unlisted internal packages)
// counts as "other".
var cpuPackages = []string{
	"rs", "gf256", "crc", "phy", "flit", "link", "switchfab", "sim", "core",
	"workload", "reliability", "rarevent", "runner", "service", "obs",
	"runtime", "other",
}

// foldProfile returns CPU self seconds per cpuPackages entry: each
// sample's CPU time is charged to the package of its innermost frame.
func foldProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}  // function id → name string index
		locLeaf   = map[uint64]uint64{} // location id → innermost function id
		samples   [][2][]uint64         // location ids, values
		cpuValue  = -1
		typeIndex []int64 // sample_type type string indexes
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return fields(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					typeIndex = append(typeIndex, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s [2][]uint64
			err := fields(b, func(n, w int, v uint64, b []byte) error {
				if n == 1 || n == 2 {
					vals, err := repeated(w, v, b)
					s[n-1] = append(s[n-1], vals...)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id, leaf uint64
			first := true
			err := fields(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line; the first entry is the innermost inlined frame
					if first {
						first = false
						return fields(b, func(n, _ int, v uint64, _ []byte) error {
							if n == 1 {
								leaf = v
							}
							return nil
						})
					}
				}
				return nil
			})
			locLeaf[id] = leaf
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, t := range typeIndex {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			cpuValue = i
		}
	}
	if cpuValue < 0 {
		return nil, errors.New("profile has no cpu sample type")
	}
	self := map[string]float64{}
	for _, s := range samples {
		if len(s[0]) == 0 || len(s[1]) <= cpuValue {
			continue
		}
		name := ""
		if idx := funcName[locLeaf[s[0][0]]]; idx >= 0 && int(idx) < len(strs) {
			name = strs[idx]
		}
		self[layerOf(name)] += float64(s[1][cpuValue]) / 1e9
	}
	return self, nil
}

// layerOf maps a symbol such as "repro/internal/rs.(*Code).Encode" to
// its cpuPackages entry.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.IndexByte(pkg, '['); i >= 0 {
		pkg = pkg[:i] // type arguments may contain package paths
	}
	if slash := strings.LastIndexByte(pkg, '/'); slash >= 0 {
		if dot := strings.IndexByte(pkg[slash:], '.'); dot >= 0 {
			pkg = pkg[:slash+dot]
		}
	} else if dot := strings.IndexByte(pkg, '.'); dot >= 0 {
		pkg = pkg[:dot]
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		last := rest[strings.LastIndexByte(rest, '/')+1:]
		for _, p := range cpuPackages {
			if p == last {
				return p
			}
		}
	}
	return "other"
}

// fields walks the top-level fields of one protobuf message, passing
// varint values in v and length-delimited payloads in b.
func fields(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// repeated decodes a repeated varint field, packed or not.
func repeated(wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
