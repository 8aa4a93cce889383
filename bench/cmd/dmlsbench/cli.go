package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"slices"
	"time"
)

// setupsPerRep is how many set-up invocations follow each repetition of a
// CLI workload, and serveLaunches how many server launches serve-mix times.
// A CLI set-up takes milliseconds, so setup_s is the median of many, spread
// over the whole run like the repetitions it follows.
const (
	setupsPerRep  = 4
	serveLaunches = 9
)

// minReps is the fewest repetitions a CLI workload runs, however short the
// run, so the digest oracle always compares several outputs.
const minReps = 3

// cliState is a CLI workload's end-to-end samples.
type cliState struct {
	*wl
	wall, cpu, rss, setups []float64
	digests, setupDigests  map[string]int
	spent                  time.Duration
}

// cliPhase measures the CLI workloads: each one's Pareto oracle first, then
// repetitions, each followed by setupsPerRep set-up invocations,
// round-robin across the workloads until each has run for budget (and at
// least minReps times), so slow drift on the machine spreads evenly over
// them.
func (b *bench) cliPhase(ctx context.Context, wls []*wl, budget time.Duration) error {
	var states []*cliState
	for _, w := range wls {
		states = append(states, &cliState{wl: w, digests: map[string]int{}, setupDigests: map[string]int{}})
		if w.in.ParetoPruned != nil {
			b.paretoOracle(ctx, w)
		}
	}
	for {
		progressed := false
		for _, st := range states {
			if st.spent >= budget && len(st.wall) >= minReps {
				continue
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			progressed = true
			p := b.invoke(ctx, st.dir, oneCore, st.in.Command, false)
			st.attempt(p.err == nil)
			for range setupsPerRep {
				s := b.invoke(ctx, st.dir, oneCore, st.in.Setup, false)
				st.attempt(s.err == nil)
				if s.err != nil {
					return s.err
				}
				st.setups = append(st.setups, s.wall.Seconds())
				st.setupDigests[s.digest]++
			}
			if p.err != nil {
				st.check("invocations exit 0", false, "%v", p.err)
				st.spent += p.wall + time.Second // a failing program must not stall the loop
				continue
			}
			st.spent += p.wall
			st.wall = append(st.wall, p.wall.Seconds())
			st.cpu = append(st.cpu, p.cpu.Seconds())
			st.rss = append(st.rss, float64(p.maxRSS)/1e6)
			st.digests[p.digest]++
		}
		if !progressed {
			break
		}
	}
	for _, st := range states {
		st.metric("setup_s", "s", st.setups)
		st.checkIdentical("set-up outputs identical", st.setupDigests)
		st.metric("wall_s", "s", st.wall)
		st.metric("cpu_s", "s", st.cpu)
		st.metric("peak_rss_mb", "MB", st.rss)
		st.checkIdentical("repetition outputs identical", st.digests)
		st.value("fail_ratio", "ratio", float64(st.run.Failed)/float64(st.run.Attempted))
	}
	return nil
}

// paretoOracle plans the suite with and without pruning and checks that
// the two Pareto sets are equal: pruning may only skip dominated cells.
func (b *bench) paretoOracle(ctx context.Context, w *wl) {
	sets := make([][]string, 2)
	for i, argv := range [][]string{w.in.ParetoPruned, w.in.ParetoExhaustive} {
		p := b.invoke(ctx, w.dir, nil, argv, true)
		w.attempt(p.err == nil)
		if p.err != nil {
			w.check("pruned Pareto set equals exhaustive", false, "%v", p.err)
			return
		}
		set, err := paretoSet(p.stdout)
		if err != nil {
			w.check("pruned Pareto set equals exhaustive", false, "%v", err)
			return
		}
		sets[i] = set
	}
	ok := len(sets[0]) > 0 && slices.Equal(sets[0], sets[1])
	if !ok {
		w.failed(1)
	}
	w.check("pruned Pareto set equals exhaustive", ok, "pruned %d, exhaustive %d frontier cells", len(sets[0]), len(sets[1]))
}

// paretoSet returns the sorted scenario names of a dmls-plan CSV's Pareto
// rows.
func paretoSet(raw []byte) ([]string, error) {
	rows, err := csv.NewReader(bytes.NewReader(raw)).ReadAll()
	if err != nil || len(rows) == 0 {
		return nil, fmt.Errorf("plan CSV: %v", err)
	}
	scenarioCol, paretoCol := slices.Index(rows[0], "scenario"), slices.Index(rows[0], "pareto")
	if scenarioCol < 0 || paretoCol < 0 {
		return nil, fmt.Errorf("plan CSV lacks scenario/pareto columns: %v", rows[0])
	}
	var set []string
	for _, row := range rows[1:] {
		if row[paretoCol] == "true" {
			set = append(set, row[scenarioCol])
		}
	}
	slices.Sort(set)
	return set, nil
}
