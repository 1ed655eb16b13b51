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

// cpuShares splits a runtime/pprof CPU profile's self time by package
// bucket (see bucketOf) and returns each bucket's share of the total.
// It decodes just the parts of the profile.proto message it needs:
// samples, locations, functions and the string table.
func cpuShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples   []sample
		locFunc   = map[uint64]uint64{} // location -> innermost function
		funcName  = map[uint64]int64{}  // function -> string index
		strs      []string
		valueSlot = 1 // profile values are (samples, cpu ns)
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var locs []uint64
			var vals []int64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					locs = appendPacked(locs, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{locs[0], vals[min(valueSlot, len(vals)-1)]})
			}
		case 4: // Location
			var id, fn uint64
			haveLine := false
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch {
				case n == 1:
					id = v
				case n == 4 && !haveLine: // Line; the first is the innermost
					haveLine = true
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range samples {
		name := ""
		if i := funcName[locFunc[s.leaf]]; i >= 0 && int(i) < len(strs) {
			name = strs[i]
		}
		shares[bucketOf(name)] += float64(s.value)
		total += float64(s.value)
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares, nil
}

// bucketOf maps a function's full name to its package bucket: the last
// element of a punica/internal package, "nethttp", "json", "runtime",
// or "other".
func bucketOf(fn string) string {
	pkg := fn
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "punica/internal/"):
		return strings.SplitN(strings.TrimPrefix(pkg, "punica/internal/"), "/", 2)[0]
	case pkg == "net/http":
		return "nethttp"
	case pkg == "encoding/json":
		return "json"
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var (
			v    uint64
			data []byte
		)
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errTruncated
			}
			b = b[w:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, packed (data) or not (v).
func appendPacked(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}
