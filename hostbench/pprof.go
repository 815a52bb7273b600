package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"runtime/pprof"
	"strings"
)

// layerProfile folds CPU-profile self time by the repository's packages.
// runtime/pprof writes a gzipped profile.proto; the few fields the fold
// needs (samples, locations, functions, strings) are decoded here so the
// benchmark needs nothing outside the standard library.
type layerProfile struct {
	buf    bytes.Buffer
	counts map[string]int64
	total  int64
}

func newLayerProfile() *layerProfile { return &layerProfile{counts: map[string]int64{}} }

func (p *layerProfile) start() error {
	p.buf.Reset()
	return pprof.StartCPUProfile(&p.buf)
}

func (p *layerProfile) stop() error {
	pprof.StopCPUProfile()
	return p.fold(p.buf.Bytes())
}

func (p *layerProfile) share(layer string) float64 {
	if p.total == 0 {
		return 0
	}
	return float64(p.counts[layer]) / float64(p.total)
}

// layerOf maps a profile function name, such as
// "xcache/internal/sim.(*Queue[...]).Pop", to its layer, or "" for code
// outside the folded layers.
func layerOf(fn string) string {
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return ""
	}
	pkg := fn[:slash+1+dot]
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "xcache/internal/dsa/"):
		return "dsa"
	case pkg == "xcache/internal/exp/runner":
		return "runner"
	}
	if l, ok := strings.CutPrefix(pkg, "xcache/internal/"); ok {
		for _, name := range layerPkgs {
			if l == name {
				return l
			}
		}
	}
	return ""
}

// fold adds one profile's samples, attributing each to the function of
// its leaf frame (the innermost inlined call at the first location).
func (p *layerProfile) fold(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	type sample struct {
		leaf  uint64
		count int64
	}
	var samples []sample
	locFn := map[uint64]uint64{}
	fnName := map[uint64]uint64{}
	var strs []string
	err = fields(raw, func(num int, v uint64, msg []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			leafSet, countSet := false, false
			err := fields(msg, func(n int, v uint64, b []byte) error {
				switch n {
				case 1: // location_id, leaf first
					ids, err := repeated(v, b)
					if !leafSet && len(ids) > 0 {
						s.leaf, leafSet = ids[0], true
					}
					return err
				case 2: // value: [samples, cpu ns]
					vals, err := repeated(v, b)
					if !countSet && len(vals) > 0 {
						s.count, countSet = int64(vals[0]), true
					}
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id, fn uint64
			err := fields(msg, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined frame
					if fn == 0 {
						return fields(b, func(n int, v uint64, _ []byte) error {
							if n == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			locFn[id] = fn
			return err
		case 5: // Function
			var id, name uint64
			err := fields(msg, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, s := range samples {
		idx := fnName[locFn[s.leaf]]
		if idx >= uint64(len(strs)) {
			return errors.New("pprof: string index out of range")
		}
		p.total += s.count
		if l := layerOf(strs[idx]); l != "" {
			p.counts[l] += s.count
		}
	}
	return nil
}

var errTruncated = errors.New("pprof: truncated protobuf")

// fields walks a protobuf message, calling f with each field's number and
// either its varint value or its length-delimited bytes.
func fields(b []byte, f func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		var v uint64
		var msg []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return errors.New("pprof: unsupported wire type")
		}
		if err := f(int(key>>3), v, msg); err != nil {
			return err
		}
	}
	return nil
}

// repeated decodes a repeated varint field in either encoding: one value
// per field (v) or packed into msg.
func repeated(v uint64, msg []byte) ([]uint64, error) {
	if msg == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		msg = msg[n:]
	}
	return out, nil
}
