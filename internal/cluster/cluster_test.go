package cluster

import (
	"math"
	"testing"

	"dmlscale/internal/hardware"
	"dmlscale/internal/units"
)

func testConfig() Config {
	return Config{
		Node:    hardware.XeonE31240(),
		Network: hardware.GigabitEthernet(),
	}
}

func mustNew(t *testing.T, cfg Config) *Sim {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testConfig()
	bad.TaskOverhead = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative overhead accepted")
	}
	bad = testConfig()
	bad.StragglerSigma = -0.1
	if err := bad.Validate(); err == nil {
		t.Error("negative sigma accepted")
	}
	if _, err := New(Config{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestComputePhaseDeterministicNoNoise(t *testing.T) {
	s := mustNew(t, testConfig())
	flops := 84.48e9 // exactly one second at effective flops
	d, err := s.UniformComputePhase(flops, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(d)-1) > 1e-9 {
		t.Errorf("phase = %v, want 1s", d)
	}
	if math.Abs(float64(s.Clock())-1) > 1e-9 {
		t.Errorf("clock = %v, want 1s", s.Clock())
	}
}

func TestComputePhaseBarrierSemantics(t *testing.T) {
	s := mustNew(t, testConfig())
	// Phase lasts as long as the slowest task.
	d, err := s.ComputePhase([]float64{84.48e9, 2 * 84.48e9, 84.48e9 / 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(d)-2) > 1e-9 {
		t.Errorf("phase = %v, want 2s (slowest task)", d)
	}
}

func TestComputePhaseOverheadAndErrors(t *testing.T) {
	cfg := testConfig()
	cfg.TaskOverhead = units.Seconds(0.25)
	s := mustNew(t, cfg)
	d, err := s.UniformComputePhase(84.48e9, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(d)-1.25) > 1e-9 {
		t.Errorf("phase = %v, want 1.25s", d)
	}
	if _, err := s.ComputePhase(nil); err == nil {
		t.Error("empty phase accepted")
	}
	if _, err := s.ComputePhase([]float64{-1}); err == nil {
		t.Error("negative flops accepted")
	}
	if _, err := s.UniformComputePhase(1, 0); err == nil {
		t.Error("zero workers accepted")
	}
}

func TestStragglersSlowButDeterministic(t *testing.T) {
	cfg := testConfig()
	cfg.StragglerSigma = 0.1
	cfg.Seed = 42
	a := mustNew(t, cfg)
	da, err := a.UniformComputePhase(84.48e9, 8)
	if err != nil {
		t.Fatal(err)
	}
	if float64(da) <= 1 {
		t.Errorf("straggler phase = %v, want > 1s", da)
	}
	b := mustNew(t, cfg)
	db, _ := b.UniformComputePhase(84.48e9, 8)
	if da != db {
		t.Error("same seed produced different straggler noise")
	}
	cfg.Seed = 43
	c := mustNew(t, cfg)
	dc, _ := c.UniformComputePhase(84.48e9, 8)
	if dc == da {
		t.Error("different seeds produced identical noise")
	}
}

func TestTransferRounds(t *testing.T) {
	s := mustNew(t, testConfig())
	payload := units.Bits(1e9) // 1 second per round at 1 Gbit/s
	d, err := s.TransferRounds(payload, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := 3 * (1 + 100e-6)
	if math.Abs(float64(d)-want) > 1e-9 {
		t.Errorf("transfer = %v, want %v", d, want)
	}
	if _, err := s.TransferRounds(payload, -1); err == nil {
		t.Error("negative rounds accepted")
	}
	if _, err := s.TransferRounds(-1, 1); err == nil {
		t.Error("negative payload accepted")
	}
}

func TestSharedMemoryTransfersFree(t *testing.T) {
	cfg := testConfig()
	cfg.Network = hardware.SharedMemoryBus()
	s := mustNew(t, cfg)
	d, err := s.TransferRounds(1e12, 10)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("shared-memory transfer = %v, want 0", d)
	}
}

func TestTorrentBroadcastRounds(t *testing.T) {
	payload := units.Bits(1e9)
	// n=1: 1 round; n=8: 1+3; n=9: 1+4.
	cases := []struct {
		n      int
		rounds float64
	}{
		{1, 1}, {2, 2}, {8, 4}, {9, 5},
	}
	for _, tt := range cases {
		s := mustNew(t, testConfig())
		d, err := s.TorrentBroadcast(payload, tt.n)
		if err != nil {
			t.Fatal(err)
		}
		want := tt.rounds * (1 + 100e-6)
		if math.Abs(float64(d)-want) > 1e-9 {
			t.Errorf("broadcast(%d) = %v, want %v", tt.n, d, want)
		}
	}
	s := mustNew(t, testConfig())
	if _, err := s.TorrentBroadcast(payload, 0); err == nil {
		t.Error("broadcast to 0 workers accepted")
	}
}

func TestSqrtWaveAggregateRounds(t *testing.T) {
	payload := units.Bits(1e9)
	cases := []struct {
		n      int
		rounds float64
	}{
		{1, 2}, {4, 4}, {9, 6}, {10, 8},
	}
	for _, tt := range cases {
		s := mustNew(t, testConfig())
		d, err := s.SqrtWaveAggregate(payload, tt.n)
		if err != nil {
			t.Fatal(err)
		}
		want := tt.rounds * (1 + 100e-6)
		if math.Abs(float64(d)-want) > 1e-9 {
			t.Errorf("aggregate(%d) = %v, want %v rounds", tt.n, d, tt.rounds)
		}
	}
}

func TestTreeAllReduce(t *testing.T) {
	payload := units.Bits(1e9)
	s := mustNew(t, testConfig())
	d, err := s.TreeAllReduce(payload, 50)
	if err != nil {
		t.Fatal(err)
	}
	want := 6 * (1 + 100e-6) // ceil(log2 50) = 6
	if math.Abs(float64(d)-want) > 1e-9 {
		t.Errorf("all-reduce(50) = %v, want %v", d, want)
	}
	d, err = s.TreeAllReduce(payload, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("all-reduce(1) = %v, want 0", d)
	}
}

func TestOverheadAdvancesClock(t *testing.T) {
	s := mustNew(t, testConfig())
	if err := s.Overhead(0.5); err != nil {
		t.Fatal(err)
	}
	if err := s.Overhead(-1); err == nil {
		t.Error("negative overhead accepted")
	}
	if s.Clock() != 0.5 {
		t.Errorf("clock after overhead = %v, want 0.5", s.Clock())
	}
	// 84.48e9 flops take exactly one second at effective flops.
	if _, err := s.UniformComputePhase(84.48e9, 1); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(s.Clock())-1.5) > 1e-9 {
		t.Errorf("clock after compute = %v, want 1.5", s.Clock())
	}
}
