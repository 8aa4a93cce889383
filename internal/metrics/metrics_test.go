package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMAPE(t *testing.T) {
	actual := []float64{1, 2, 4}
	predicted := []float64{1.1, 1.8, 4}
	// errors: 10%, 10%, 0% -> mean 6.666...%
	got, err := MAPE(actual, predicted)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(got, 100.0/15) {
		t.Errorf("MAPE = %v, want %v", got, 100.0/15)
	}
}

func TestMAPESkipsZeroActual(t *testing.T) {
	got, err := MAPE([]float64{0, 2}, []float64{5, 2.2})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(got, 10) {
		t.Errorf("MAPE = %v, want 10 (zero point skipped)", got)
	}
	if _, err := MAPE([]float64{0, 0}, []float64{1, 1}); err == nil {
		t.Error("MAPE of all-zero actual should fail")
	}
}

func TestErrorsOnMismatchAndEmpty(t *testing.T) {
	if _, err := MAPE([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("MAPE length mismatch accepted")
	}
	if _, err := MAPE(nil, nil); err == nil {
		t.Error("MAPE of empty series accepted")
	}
}

func TestPerfectPrediction(t *testing.T) {
	series := []float64{1, 1.9, 2.7, 3.2}
	if m, _ := MAPE(series, series); !almost(m, 0) {
		t.Errorf("MAPE of identical series = %v", m)
	}
}

// Property: MAPE is non-negative for any series of nonzero actual values.
func TestMetricProperties(t *testing.T) {
	f := func(pairs []struct{ A, P float64 }) bool {
		if len(pairs) == 0 {
			return true
		}
		actual := make([]float64, len(pairs))
		predicted := make([]float64, len(pairs))
		for i, p := range pairs {
			a, pr := p.A, p.P
			if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(pr) || math.IsInf(pr, 0) {
				return true
			}
			// Keep values well conditioned.
			actual[i] = math.Mod(a, 1e6) + 1
			predicted[i] = math.Mod(pr, 1e6)
		}
		mape, err := MAPE(actual, predicted)
		return err == nil && mape >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
