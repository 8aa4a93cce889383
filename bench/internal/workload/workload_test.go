package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	program "dmlscale/internal/scenario"
)

// encoded is everything a workload hands the programs, as bytes.
func encoded(t *testing.T, name string, seed int64, size Size) ([]byte, map[string][]byte) {
	t.Helper()
	in, err := Generate(name, seed, size)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	return raw, in.Files
}

func TestGenerateIsSeedDeterministic(t *testing.T) {
	for _, name := range Names {
		t.Run(name, func(t *testing.T) {
			a, aFiles := encoded(t, name, 7, Smoke)
			b, bFiles := encoded(t, name, 7, Smoke)
			if !bytes.Equal(a, b) || !reflect.DeepEqual(aFiles, bFiles) {
				t.Fatal("the same seed generated different inputs")
			}
			c, cFiles := encoded(t, name, 8, Smoke)
			if bytes.Equal(a, c) && reflect.DeepEqual(aFiles, cFiles) {
				t.Fatal("another seed generated the same inputs")
			}
		})
	}
}

func TestGeneratedSuitesDecode(t *testing.T) {
	for _, name := range Names {
		in, err := Generate(name, 3, Smoke)
		if err != nil {
			t.Fatal(err)
		}
		for file, raw := range in.Files {
			if _, err := program.DecodeSuite(bytes.NewReader(raw)); err != nil {
				t.Errorf("%s: %s: %v", name, file, err)
			}
		}
		requests := append([]Request{}, in.Prewarm...)
		for _, rung := range in.Rungs {
			requests = append(requests, rung.Requests...)
		}
		for _, req := range requests {
			var body struct {
				Suite json.RawMessage `json:"suite"`
			}
			if err := json.Unmarshal(req.Body, &body); err != nil {
				t.Fatalf("%s %s: %v", name, req.Class, err)
			}
			if _, err := program.DecodeSuite(bytes.NewReader(body.Suite)); err != nil {
				t.Errorf("%s %s: %v", name, req.Class, err)
			}
		}
	}
}

func TestPlanGridIsTheFullGrid(t *testing.T) {
	in, err := Generate(PlanGrid, 1, Full)
	if err != nil {
		t.Fatal(err)
	}
	s, err := program.DecodeSuite(bytes.NewReader(in.Files["plan-grid.json"]))
	if err != nil {
		t.Fatal(err)
	}
	cs, err := s.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Len() != 10800 {
		t.Errorf("plan-grid has %d cells, want 10800", cs.Len())
	}
}

func TestServeMixRungsHaveExactSharesAndPoissonDues(t *testing.T) {
	in, err := Generate(ServeMix, 1, Full)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Rungs) != len(Rates)+1 || in.Rungs[0].Rate != ClosedLoop {
		t.Fatalf("%d rungs, want the closed-loop reference then one per rate", len(in.Rungs))
	}
	if got, want := len(in.Rungs[0].Requests), Full.ClosedBlocks*Full.RungRequests; got != want {
		t.Fatalf("closed-loop rung has %d requests, want %d", got, want)
	}
	shares := func(name string, reqs []Request) {
		counts := map[string]int{}
		for _, req := range reqs {
			counts[req.Class]++
		}
		for _, cs := range classShares {
			if counts[cs.class] != len(reqs)*cs.percent/100 {
				t.Errorf("%s: %d %s requests of %d, want %d%%", name, counts[cs.class], cs.class, len(reqs), cs.percent)
			}
		}
	}
	// The traced run replays the closed-loop rung's first block, which is
	// in exact shares on its own.
	if len(in.Replay()) != Full.RungRequests {
		t.Fatalf("replay has %d requests, want one block of %d", len(in.Replay()), Full.RungRequests)
	}
	shares("replay", in.Replay())
	seen := map[string]bool{}
	for _, rung := range in.Rungs {
		shares(fmt.Sprintf("r%d", rung.Rate), rung.Requests)
		for i, req := range rung.Requests {
			if i > 0 && req.Due < rung.Requests[i-1].Due {
				t.Fatalf("r%d: request %d is due before its predecessor", rung.Rate, i)
			}
			if req.Class == classPlanGridSmall || req.Class == classSweepCold {
				if seen[string(req.Body)] {
					t.Errorf("r%d: a %s request repeats; those classes must never be seen twice", rung.Rate, req.Class)
				}
				seen[string(req.Body)] = true
			}
		}
		n := len(rung.Requests)
		if rung.Rate == ClosedLoop {
			continue
		}
		// 200 exponential gaps: the mean rate lands within 25% of the target.
		if got := float64(n) / rung.Requests[n-1].Due.Seconds(); got < 0.75*float64(rung.Rate) || got > 1.25*float64(rung.Rate) {
			t.Errorf("r%d: arrivals average %.1f/s", rung.Rate, got)
		}
	}
	// The example classes are the repository's example suites, verbatim.
	for _, req := range in.Replay() {
		if req.Class == classPlanExample && !strings.Contains(string(req.Body), "time-to-accuracy planning") {
			t.Fatalf("plan-example body is not plan-tta.json: %.80s", req.Body)
		}
	}
}
