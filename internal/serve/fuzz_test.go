package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// FuzzPlanRequest checks the /v1/plan request path holds its contract under
// arbitrary input: malformed JSON, conflicting budget fields and oversized
// grids are rejected 4xx before any engine work, nothing panics, and every
// response body is structured JSON.
func FuzzPlanRequest(f *testing.F) {
	seeds := []string{
		// Valid requests.
		`{"suite": ` + planSuiteJSON + `}`,
		`{"suite": ` + planSuiteJSON + `, "objective": "cost", "adaptive": true, "refine": 1}`,
		`{"suite": ` + planSuiteJSON + `, "max_time": "2h", "max_cost": 25}`,
		`{"suite": ` + planSuiteJSON + `, "deadline": "5s", "parallelism": 2}`,
		// Malformed JSON.
		`{`,
		`not json`,
		`{"suite": }`,
		`[1, 2, 3]`,
		`{"suite": ` + planSuiteJSON + `} trailing`,
		// Schema violations.
		`{"objective": "tta"}`,
		`{"suite": "a string"}`,
		`{"suite": {"name": "x"}}`,
		`{"suite": ` + planSuiteJSON + `, "unknown_knob": 1}`,
		`{"suite": ` + planSuiteJSON + `, "objective": "fastest"}`,
		// Invalid budget fields, and max_time_seconds, which is no field.
		`{"suite": ` + planSuiteJSON + `, "max_time": "2h", "max_time_seconds": 7200}`,
		`{"suite": ` + planSuiteJSON + `, "max_time": "-1h"}`,
		`{"suite": ` + planSuiteJSON + `, "max_time_seconds": -5}`,
		`{"suite": ` + planSuiteJSON + `, "max_cost": -1}`,
		`{"suite": ` + planSuiteJSON + `, "refine": -2}`,
		`{"suite": ` + planSuiteJSON + `, "deadline": "0s"}`,
		`{"suite": ` + planSuiteJSON + `, "deadline": "never"}`,
		// Oversized grid: 4×4×4×4 = 256 cells, over the fuzz server's cap.
		`{"suite": {"name": "big", "sweep": {
		   "base": {"name": "c", "workload": {"family": "gd-weak", "flops_per_example": 1e9, "batch_size": 128, "parameters": 1e6},
		            "hardware": {"preset": "nvidia-k40"}, "protocol": {"kind": "ring", "bandwidth_bits_per_sec": 1e9}, "max_workers": 8},
		   "bandwidths_bits_per_sec": [1e9, 2e9, 4e9, 8e9],
		   "protocols": ["ring", "linear", "two-stage-tree", "pipelined-tree"],
		   "precisions_bits": [8, 16, 32, 64],
		   "max_workers": [4, 8, 16, 32]}}}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}

	srv := New(Config{MaxCells: 16, DefaultDeadline: 10 * time.Second})
	defer srv.Close()
	handler := srv.Handler()

	f.Fuzz(func(t *testing.T, body string) {
		// Keep iterations fast: skip inputs that are valid requests over
		// expensive-but-legal suites (big graphs, wide curves) — the engine
		// is fuzzed elsewhere; this target is the request schema.
		var probe struct {
			Suite json.RawMessage `json:"suite"`
		}
		if err := json.Unmarshal([]byte(body), &probe); err == nil && len(probe.Suite) > 0 {
			var sp struct {
				Scenarios []json.RawMessage `json:"scenarios"`
				Sweep     json.RawMessage   `json:"sweep"`
			}
			if json.Unmarshal(probe.Suite, &sp) != nil {
				// fall through: the strict decoder will reject it
			} else if strings.Contains(string(probe.Suite), "vertices") ||
				strings.Contains(string(probe.Suite), "trials") {
				if len(probe.Suite) > 0 && probeExpensive(probe.Suite) {
					t.Skip("expensive-but-valid suite; out of scope for the schema fuzzer")
				}
			}
		}

		req := httptest.NewRequest("POST", "/v1/plan", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)

		switch {
		case rec.Code == 200:
			var report struct {
				Suite string `json:"suite"`
				Plans []any  `json:"plans"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &report); err != nil {
				t.Fatalf("200 body not a plan report: %v", err)
			}
		case rec.Code >= 400 && rec.Code < 500:
			var e apiError
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("%d body not a structured error: %q", rec.Code, rec.Body.String())
			}
		case rec.Code == http.StatusGatewayTimeout:
			// Legal for a valid suite that outruns the deadline.
		default:
			t.Fatalf("status %d for input %q; the request path must never 5xx on malformed input", rec.Code, body)
		}
		if n := srv.panics.Value(); n != 0 {
			t.Fatalf("handler panicked (contained) on input %q", body)
		}
	})
}

// probeExpensive reports whether a raw suite document mentions graph or
// sampling parameters large enough to make evaluation slow.
func probeExpensive(raw json.RawMessage) bool {
	var s struct {
		Scenarios []struct {
			Workload struct {
				Graph *struct {
					Vertices int `json:"vertices"`
				} `json:"graph"`
				Trials int `json:"trials"`
			} `json:"workload"`
		} `json:"scenarios"`
		Sweep *struct {
			Base struct {
				Workload struct {
					Graph *struct {
						Vertices int `json:"vertices"`
					} `json:"graph"`
					Trials int `json:"trials"`
				} `json:"workload"`
			} `json:"base"`
		} `json:"sweep"`
	}
	if json.Unmarshal(raw, &s) != nil {
		return false
	}
	for _, sc := range s.Scenarios {
		if sc.Workload.Graph != nil && sc.Workload.Graph.Vertices > 20000 {
			return true
		}
		if sc.Workload.Trials > 50 {
			return true
		}
	}
	if s.Sweep != nil {
		w := s.Sweep.Base.Workload
		if w.Graph != nil && w.Graph.Vertices > 20000 {
			return true
		}
		if w.Trials > 50 {
			return true
		}
	}
	return false
}
