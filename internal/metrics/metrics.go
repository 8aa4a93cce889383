// Package metrics implements the model-quality measure the paper reports:
// the mean absolute percentage error (MAPE) between experimental and
// predicted speedup curves.
package metrics

import (
	"fmt"
	"math"
)

// MAPE returns the mean absolute percentage error of predicted against
// actual, in percent: 100/n · Σ |aᵢ − pᵢ| / |aᵢ|. Points with aᵢ == 0 are
// skipped (their percentage error is undefined); if every point is skipped
// an error is returned.
func MAPE(actual, predicted []float64) (float64, error) {
	if len(actual) != len(predicted) {
		return 0, fmt.Errorf("metrics: series length mismatch: actual %d, predicted %d", len(actual), len(predicted))
	}
	if len(actual) == 0 {
		return 0, fmt.Errorf("metrics: MAPE of empty series")
	}
	sum, used := 0.0, 0
	for i := range actual {
		if actual[i] == 0 {
			continue
		}
		sum += math.Abs(actual[i]-predicted[i]) / math.Abs(actual[i])
		used++
	}
	if used == 0 {
		return 0, fmt.Errorf("metrics: MAPE undefined: all actual values are zero")
	}
	return 100 * sum / float64(used), nil
}
