package units

import (
	"math"
	"testing"
)

func TestTransferTime(t *testing.T) {
	tests := []struct {
		name string
		bits Bits
		bw   BitsPerSecond
		want Seconds
	}{
		{"model broadcast", Bits(64 * 12e6), Gbps, Seconds(0.768)},
		{"one bit on 1bps", 1, 1, 1},
		{"zero payload", 0, Gbps, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := TransferTime(tt.bits, tt.bw)
			if math.Abs(float64(got-tt.want)) > 1e-12 {
				t.Errorf("TransferTime(%v, %v) = %v, want %v", tt.bits, tt.bw, got, tt.want)
			}
		})
	}
}

func TestTransferTimeZeroBandwidth(t *testing.T) {
	if got := TransferTime(1, 0); !math.IsInf(float64(got), 1) {
		t.Errorf("TransferTime with zero bandwidth = %v, want +Inf", got)
	}
}

func TestComputeTime(t *testing.T) {
	// The paper's Fig. 2 computation term: 6·W·S flops on one node.
	ops := 6.0 * 12e6 * 60000
	f := Flops(0.8 * 105.6e9)
	got := ComputeTime(ops, f)
	want := ops / (0.8 * 105.6e9)
	if math.Abs(float64(got)-want) > 1e-9 {
		t.Errorf("ComputeTime = %v, want %v", got, want)
	}
	if got := ComputeTime(1, 0); !math.IsInf(float64(got), 1) {
		t.Errorf("ComputeTime with zero flops = %v, want +Inf", got)
	}
}

func TestStringFormats(t *testing.T) {
	tests := []struct {
		got, want string
	}{
		{Flops(211.2e9).String(), "211.2 GFLOPS"},
		{Flops(4.28e12).String(), "4.28 TFLOPS"},
		{Gbps.String(), "1 Gbit/s"},
		{BitsPerSecond(100e6).String(), "100 Mbit/s"},
		{Bytes(16e9).String(), "16 GB"},
		{Bytes(2e12).String(), "2 TB"},
		{Seconds(51.136).String(), "51.136 s"},
		{Seconds(0.00307).String(), "3.07 ms"},
		{Seconds(0).String(), "0 s"},
		{Seconds(2.5e-7).String(), "250 ns"},
		{Bits(768e6).String(), "768 Mbit"},
	}
	for _, tt := range tests {
		if tt.got != tt.want {
			t.Errorf("got %q, want %q", tt.got, tt.want)
		}
	}
}
