// Package resume ties a ckpt.Journal to the evaluation engines: it replays
// a crashed run's journal — seeding the registry's kernel-estimate cache
// and exposing finished cells as a scenario.Checkpoint — and journals new
// work as it lands, so the next crash loses at most the records after the
// last durable sync.
//
// The contract the CLIs build on: a resumed run evaluates only the cells
// the journal does not cover, every kernel estimate the journal holds is
// served from cache instead of recomputed, and the merged output is
// byte-identical to an uninterrupted run (results round-trip through the
// same ResultRecord encoding the exporters use, and the Monte-Carlo kernel
// is deterministic per coordinates).
package resume

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"

	"dmlscale/internal/ckpt"
	"dmlscale/internal/registry"
	"dmlscale/internal/scenario"
)

// Run is one checkpointed evaluation: an open journal, the replayed cell
// records, and the kernel-observer hook that journals fresh estimates.
// Lookup/Save implement scenario.Checkpoint; Close uninstalls the observer
// and reports the first append failure (a checkpoint that silently stopped
// recording would resume wrong).
type Run struct {
	journal *ckpt.Journal

	mu        sync.Mutex
	cells     map[int]scenario.ResultRecord
	appendErr error

	// Resumed is true when an existing journal was replayed (as opposed to
	// a fresh one created). CellsReplayed and KernelReplayed count what the
	// journal contributed.
	Resumed        bool
	CellsReplayed  int
	KernelReplayed int
}

// Open attaches a checkpoint journal at path for the named suite. With
// resume false it always starts a fresh journal (truncating any previous
// one). With resume true it replays an existing journal first — validating
// that the journal belongs to this suite shape — and falls back to a fresh
// start when the file is missing or holds no valid records. Either way the
// registry's kernel observer is installed on return; callers must Close.
func Open(path, suiteName string, cells int, resume bool) (*Run, error) {
	if resume {
		j, h, entries, err := ckpt.Open(path)
		switch {
		case err == nil:
			if h.Suite != suiteName || h.Cells != cells {
				j.Close()
				return nil, fmt.Errorf("resume: journal %s is for suite %q (%d cells), not %q (%d cells); refusing to mix runs",
					path, h.Suite, h.Cells, suiteName, cells)
			}
			r := &Run{journal: j, cells: make(map[int]scenario.ResultRecord), Resumed: true}
			for _, e := range entries {
				r.replay(e)
			}
			r.install()
			return r, nil
		case errors.Is(err, ckpt.ErrEmpty), errors.Is(err, os.ErrNotExist):
			// Nothing usable on disk: a resume of a run that never got a
			// record out is just a fresh run.
		default:
			return nil, err
		}
	}
	j, err := ckpt.Create(path, ckpt.Header{Suite: suiteName, Cells: cells})
	if err != nil {
		return nil, err
	}
	r := &Run{journal: j, cells: make(map[int]scenario.ResultRecord)}
	r.install()
	return r, nil
}

// replay folds one journal entry into the run: cell records become
// Checkpoint hits, kernel records seed the registry estimate cache so the
// evaluation of still-missing cells reuses every paid-for compute.
func (r *Run) replay(e ckpt.Entry) {
	switch e.Kind {
	case ckpt.KindCell:
		var cr ckpt.CellRecord
		if json.Unmarshal(e.Data, &cr) != nil {
			return
		}
		var rec scenario.ResultRecord
		if json.Unmarshal(cr.Result, &rec) != nil {
			return
		}
		r.cells[cr.Index] = rec
		r.CellsReplayed++
	case ckpt.KindKernel:
		var kr ckpt.KernelRecord
		if json.Unmarshal(e.Data, &kr) != nil {
			return
		}
		registry.SeedEstimate(registry.KernelCall{
			Fingerprint: kr.Fingerprint,
			Mix:         kr.Mix,
			Vertices:    kr.Vertices,
			Workers:     kr.Workers,
			Trials:      kr.Trials,
			Seed:        kr.Seed,
		}, kr.Value)
		r.KernelReplayed++
	}
}

// install hooks the registry so every fresh kernel estimate is journaled
// the moment it is computed — kernel work survives a crash even when its
// cell does not.
func (r *Run) install() {
	registry.SetKernelObserver(func(call registry.KernelCall, value float64) {
		r.append(ckpt.KindKernel, ckpt.KernelRecord{
			Fingerprint: call.Fingerprint,
			Mix:         call.Mix,
			Vertices:    call.Vertices,
			Workers:     call.Workers,
			Trials:      call.Trials,
			Seed:        call.Seed,
			Value:       value,
		})
	})
}

// Lookup implements scenario.Checkpoint: a journaled record answers only
// for its own index AND scenario name, so a reordered or edited suite can
// never replay the wrong cell.
func (r *Run) Lookup(index int, name string) (scenario.ResultRecord, bool) {
	r.mu.Lock()
	rec, ok := r.cells[index]
	r.mu.Unlock()
	if !ok || rec.Scenario != name {
		return scenario.ResultRecord{}, false
	}
	return rec, true
}

// Save implements scenario.Checkpoint: journal one finished cell.
func (r *Run) Save(index int, name string, rec scenario.ResultRecord) {
	data, err := json.Marshal(rec)
	if err != nil {
		r.noteErr(fmt.Errorf("resume: encode cell %d: %w", index, err))
		return
	}
	r.append(ckpt.KindCell, ckpt.CellRecord{Index: index, Result: data})
}

// append journals one record, remembering the first failure.
func (r *Run) append(kind string, payload any) {
	if err := r.journal.Append(kind, payload); err != nil {
		r.noteErr(err)
	}
}

func (r *Run) noteErr(err error) {
	r.mu.Lock()
	if r.appendErr == nil {
		r.appendErr = err
	}
	r.mu.Unlock()
}

// Close uninstalls the kernel observer, makes the journal durable and
// returns the first error any append hit — a run whose checkpoint silently
// stopped recording must not report a clean exit.
func (r *Run) Close() error {
	registry.SetKernelObserver(nil)
	closeErr := r.journal.Close()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.appendErr != nil {
		return r.appendErr
	}
	return closeErr
}
