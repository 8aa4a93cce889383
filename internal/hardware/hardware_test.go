package hardware

import (
	"math"
	"testing"

	"dmlscale/internal/units"
)

func TestEffectiveFlops(t *testing.T) {
	// Fig. 2 uses F = 0.8 · 105.6e9.
	got := XeonE31240().EffectiveFlops()
	want := units.Flops(0.8 * 105.6e9)
	if math.Abs(float64(got-want)) > 1 {
		t.Errorf("Xeon effective flops = %v, want %v", got, want)
	}
	// Fig. 3 uses F = 0.5 · 4.28e12.
	got = NvidiaK40().EffectiveFlops()
	want = units.Flops(0.5 * 4.28e12)
	if math.Abs(float64(got-want)) > 1 {
		t.Errorf("K40 effective flops = %v, want %v", got, want)
	}
}

func TestNodeValidate(t *testing.T) {
	tests := []struct {
		name    string
		node    Node
		wantErr bool
	}{
		{"catalog xeon", XeonE31240(), false},
		{"catalog k40", NvidiaK40(), false},
		{"catalog dl980", ProLiantDL980Core(), false},
		{"zero flops", Node{Name: "x", Efficiency: 0.5}, true},
		{"negative flops", Node{Name: "x", PeakFlops: -1, Efficiency: 0.5}, true},
		{"zero efficiency", Node{Name: "x", PeakFlops: 1e9}, true},
		{"efficiency above one", Node{Name: "x", PeakFlops: 1e9, Efficiency: 1.5}, true},
		{"negative cost rate", Node{Name: "x", PeakFlops: 1e9, Efficiency: 0.5, CostPerHour: -1}, true},
		{"unpriced node", Node{Name: "x", PeakFlops: 1e9, Efficiency: 0.5}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.node.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestNetworkValidate(t *testing.T) {
	tests := []struct {
		name    string
		nw      Network
		wantErr bool
	}{
		{"gigabit", GigabitEthernet(), false},
		{"ten gigabit", TenGigabitEthernet(), false},
		{"shared memory", SharedMemoryBus(), false},
		{"shared memory without bandwidth", Network{SharedMemory: true}, false},
		{"zero bandwidth", Network{Name: "x"}, true},
		{"negative latency", Network{Name: "x", Bandwidth: 1, Latency: -1}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.nw.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestCatalogNodesArePriced(t *testing.T) {
	// The planner's cost objective needs a rate on every catalog node, and
	// the relative magnitudes should reflect the hardware class.
	xeon, k40, core := XeonE31240(), NvidiaK40(), ProLiantDL980Core()
	for _, n := range []Node{xeon, k40, core} {
		if err := n.Validate(); err != nil {
			t.Errorf("%s: %v", n.Name, err)
		}
		if n.CostPerHour <= 0 {
			t.Errorf("%s: catalog node unpriced", n.Name)
		}
	}
	if !(k40.CostPerHour > xeon.CostPerHour && xeon.CostPerHour > core.CostPerHour) {
		t.Errorf("cost rates out of order: k40 %v, xeon %v, core %v",
			k40.CostPerHour, xeon.CostPerHour, core.CostPerHour)
	}
}
