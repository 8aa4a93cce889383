// Package units defines the physical quantities the scalability models are
// expressed in — floating-point throughput, network bandwidth, data sizes and
// durations — together with human-readable formatting.
//
// All quantities are simple float64 wrappers so they compose with the math
// package without conversions, but the distinct types keep FLOPS from being
// accidentally added to bits per second.
package units

import (
	"math"
	"strconv"
	"strings"
)

// Flops is a computation rate in floating-point operations per second.
type Flops float64

// Common computation rates.
const (
	KiloFlops Flops = 1e3
	MegaFlops Flops = 1e6
	GigaFlops Flops = 1e9
	TeraFlops Flops = 1e12
	PetaFlops Flops = 1e15
)

// BitsPerSecond is a network bandwidth.
type BitsPerSecond float64

// Common bandwidths.
const (
	Kbps BitsPerSecond = 1e3
	Mbps BitsPerSecond = 1e6
	Gbps BitsPerSecond = 1e9
	Tbps BitsPerSecond = 1e12
)

// Bits is a data size in bits.
type Bits float64

// Bytes is a data size in bytes.
type Bytes float64

// Common byte sizes (decimal, matching how the paper quotes hardware).
const (
	KB Bytes = 1e3
	MB Bytes = 1e6
	GB Bytes = 1e9
	TB Bytes = 1e12
)

// Seconds is a duration. The models work in plain seconds rather than
// time.Duration because superstep times routinely fall below a nanosecond
// once normalized, and because speedup is a ratio of these values.
type Seconds float64

// TransferTime returns how long moving b bits through a link of bandwidth bw
// takes. A non-positive bandwidth yields +Inf: the transfer never completes.
func TransferTime(b Bits, bw BitsPerSecond) Seconds {
	if bw <= 0 {
		return Seconds(math.Inf(1))
	}
	return Seconds(float64(b) / float64(bw))
}

// ComputeTime returns how long executing ops floating-point operations on a
// device of the given throughput takes. A non-positive throughput yields
// +Inf.
func ComputeTime(ops float64, f Flops) Seconds {
	if f <= 0 {
		return Seconds(math.Inf(1))
	}
	return Seconds(ops / float64(f))
}

// String formats the rate with an SI prefix, e.g. "211.2 GFLOPS".
func (f Flops) String() string {
	v, prefix := siSplit(float64(f))
	return trimFloat(v) + " " + prefix + "FLOPS"
}

// String formats the bandwidth with an SI prefix, e.g. "1 Gbit/s".
func (b BitsPerSecond) String() string {
	v, prefix := siSplit(float64(b))
	return trimFloat(v) + " " + prefix + "bit/s"
}

// String formats the size with an SI prefix, e.g. "16 GB".
func (b Bytes) String() string {
	v, prefix := siSplit(float64(b))
	return trimFloat(v) + " " + prefix + "B"
}

// String formats the size with an SI prefix, e.g. "768 Mbit".
func (b Bits) String() string {
	v, prefix := siSplit(float64(b))
	return trimFloat(v) + " " + prefix + "bit"
}

// String formats the duration with an engineering prefix, e.g. "51.1 s",
// "3.07 ms".
func (s Seconds) String() string {
	v := float64(s)
	switch {
	case math.IsInf(v, 0) || math.IsNaN(v):
		return strconv.FormatFloat(v, 'g', -1, 64) + " s"
	case v == 0:
		return "0 s"
	}
	abs := math.Abs(v)
	switch {
	case abs >= 1:
		return trimFloat(v) + " s"
	case abs >= 1e-3:
		return trimFloat(v*1e3) + " ms"
	case abs >= 1e-6:
		return trimFloat(v*1e6) + " µs"
	default:
		return trimFloat(v*1e9) + " ns"
	}
}

// siSplit reduces v to a mantissa in [1, 1000) and the matching SI prefix.
func siSplit(v float64) (mantissa float64, prefix string) {
	if v == 0 || math.IsInf(v, 0) || math.IsNaN(v) {
		return v, ""
	}
	prefixes := []string{"", "k", "M", "G", "T", "P", "E"}
	abs := math.Abs(v)
	i := 0
	for abs >= 1000 && i < len(prefixes)-1 {
		abs /= 1000
		v /= 1000
		i++
	}
	return v, prefixes[i]
}

// trimFloat formats v with up to three significant decimals, trimming
// trailing zeros.
func trimFloat(v float64) string {
	s := strconv.FormatFloat(v, 'f', 3, 64)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}
