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

// layers is every bucket a CPU-profile sample can be charged to, in
// report order. The first eleven are the simulator's layers; "system"
// is the platform wiring in internal/system outside the thermal
// coupler, "bench" is this benchmark's own code (its HTTP client
// included) and "other" is anything left.
var layers = []string{
	"sim", "simt", "gpu", "hmc", "thermal", "core", "telemetry",
	"runtime", "graph", "runner", "serve", "system", "bench", "other",
}

// pkgLayer maps a coolpim/internal package (its first path element) to
// its layer. Packages mapped to "" are transparent: a sample whose
// innermost internal frame is one of them is charged to the nearest
// caller outside it.
var pkgLayer = map[string]string{
	"sim":         "sim",
	"simt":        "simt",
	"kernels":     "simt",
	"gpu":         "gpu",
	"cache":       "gpu",
	"mem":         "gpu",
	"hmc":         "hmc",
	"dram":        "hmc",
	"flit":        "hmc",
	"thermal":     "thermal",
	"power":       "thermal",
	"core":        "core",
	"telemetry":   "telemetry",
	"graph":       "graph",
	"runner":      "runner",
	"experiments": "runner",
	"serve":       "serve",
	"resultcache": "serve",
	"atomicfile":  "serve",
	"units":       "",
}

const internalPrefix = "coolpim/internal/"

// frameLayer returns the layer a function belongs to, or "" when the
// frame is transparent (outside coolpim/internal, or a helper package).
func frameLayer(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	pkg := rest
	if i := strings.IndexAny(pkg, "/."); i >= 0 {
		pkg = pkg[:i]
	}
	if pkg == "system" {
		if strings.Contains(rest, "thermalCoupler") || strings.Contains(rest, "activityFor") {
			return "thermal"
		}
		return "system"
	}
	l, known := pkgLayer[pkg]
	if !known {
		return "other"
	}
	return l
}

// stackLayer charges one sample, given its frames innermost first. The
// innermost frame inside coolpim/internal decides, so runtime helpers
// such as duffcopy, coroswitch and mallocgc go to the layer that called
// them. A stack with no internal frame is a GC worker or scheduler
// ("runtime"), the service's HTTP server loop ("serve"), or the
// benchmark's own code ("bench").
func stackLayer(frames []string) string {
	for _, f := range frames {
		if l := frameLayer(f); l != "" {
			return l
		}
	}
	for _, f := range frames {
		switch {
		case strings.HasPrefix(f, "main."), strings.HasPrefix(f, "coolpim/perfbench."):
			// The test binary names this package by its import path.
			return "bench"
		case strings.HasPrefix(f, "net/http.(*conn)"), strings.HasPrefix(f, "net/http.(*Server)"):
			return "serve"
		case strings.HasPrefix(f, "net/http."):
			return "bench"
		}
	}
	if len(frames) == 0 {
		return "other"
	}
	return "runtime"
}

// cpuBuckets is a CPU profile charged to layers.
type cpuBuckets struct {
	Samples int64            // every sample in the profile
	CPUNs   int64            // CPU nanoseconds over every sample
	ByLayer map[string]int64 // samples per layer
}

// share returns layer's fraction of all samples.
func (b cpuBuckets) share(layer string) float64 {
	if b.Samples == 0 {
		return 0
	}
	return float64(b.ByLayer[layer]) / float64(b.Samples)
}

// check verifies that the reported layers account for every sample, so
// their *.cpu_share values add up to 1. A sample charged to a bucket
// outside layers is missing from that sum.
func (b cpuBuckets) check() error {
	var sum int64
	for _, l := range layers {
		sum += b.ByLayer[l]
	}
	if sum != b.Samples {
		return fmt.Errorf("reported layer buckets hold %d samples, profile has %d", sum, b.Samples)
	}
	return nil
}

// bucketProfile decodes a runtime/pprof CPU profile (gzipped
// profile.proto) and charges each sample to a layer.
func bucketProfile(data []byte) (cpuBuckets, error) {
	p, err := decodeProfile(data)
	if err != nil {
		return cpuBuckets{}, err
	}
	b := cpuBuckets{ByLayer: make(map[string]int64)}
	for _, l := range layers {
		b.ByLayer[l] = 0
	}
	var frames []string
	for _, s := range p.samples {
		if len(s.values) < 2 {
			return cpuBuckets{}, errors.New("profile: CPU sample without count and nanoseconds")
		}
		frames = frames[:0]
		for _, id := range s.locs {
			for _, fid := range p.locFuncs[id] {
				frames = append(frames, p.funcName[fid])
			}
		}
		b.ByLayer[stackLayer(frames)] += s.values[0]
		b.Samples += s.values[0]
		b.CPUNs += s.values[1]
	}
	return b, nil
}

// profile is the part of profile.proto the attribution needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]string   // function id -> name
}

type sample struct {
	locs   []uint64 // location ids, leaf first
	values []int64
}

// Field numbers from github.com/google/pprof/proto/profile.proto.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6
	fSampleLocation  = 1
	fSampleValue     = 2
	fLocationID      = 1
	fLocationLine    = 4
	fLineFunction    = 1
	fFunctionID      = 1
	fFunctionName    = 2
)

func decodeProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	p := &profile{locFuncs: make(map[uint64][]uint64), funcName: make(map[uint64]string)}
	var strs []string
	funcNameIdx := make(map[uint64]uint64)
	err := eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case fProfileSample:
			var s sample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case fSampleLocation:
					return appendInts(&s.locs, v, b)
				case fSampleValue:
					var u []uint64
					if err := appendInts(&u, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case fProfileFunction:
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = v
				}
				return nil
			})
			funcNameIdx[id] = name
			return err
		case fProfileStrings:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, idx := range funcNameIdx {
		if idx >= uint64(len(strs)) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, idx, len(strs))
		}
		p.funcName[id] = strs[idx]
	}
	return p, nil
}

// appendInts appends a repeated integer field that may arrive unpacked
// (one varint v) or packed (a length-delimited run b).
func appendInts(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
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

// eachField walks one protobuf message, calling fn with each field's
// number and either its integer value (b nil) or its bytes.
func eachField(data []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		data = data[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("profile: short fixed64")
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || l > uint64(len(data)-n) {
				return errors.New("profile: bad length")
			}
			b = data[n : n+int(l)]
			if b == nil {
				b = []byte{}
			}
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("profile: short fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}
