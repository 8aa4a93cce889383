// Package ckpt is the crash-safety layer under long-running grids: an
// append-only JSONL checkpoint journal of completed work. Each line is a
// self-validating record — a CRC32 over the exact payload bytes — so a
// resumed run can trust everything it replays; a torn final record (the
// process was killed mid-write) is detected and dropped by rewriting the
// valid prefix through an atomic tmp+rename, never failing the resume.
// Appends go straight to the file descriptor and fsync every syncEvery
// records (the "segment roll"), so at most one roll of work re-evaluates
// after a machine crash, and nothing re-evaluates after a mere SIGKILL.
//
// The journal stores two record kinds for this module: completed cell
// results (CellRecord — dmls-sweep skips these cells entirely on resume)
// and computed Monte-Carlo kernel estimates (KernelRecord — replayed into
// the registry's estimate cache, so resumed planning prices cache-warm).
package ckpt

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
)

// Version is the journal format version written into headers; Open
// rejects anything newer.
const Version = 1

// syncEvery is the segment size: records between fsyncs. A crash loses at
// most this many durable records (they simply re-evaluate on resume).
const syncEvery = 64

// maxLineBytes bounds one journal line — far above any real record, so a
// corrupt length cannot make the scanner allocate unboundedly.
const maxLineBytes = 16 << 20

// Record kinds this module journals.
const (
	KindHeader = "header"
	KindCell   = "cell"
	KindKernel = "kernel"
)

// ErrEmpty reports a journal with no valid header — a file created but
// killed before the header synced, or not a journal at all. Callers treat
// it as "nothing to resume" and start fresh.
var ErrEmpty = errors.New("ckpt: journal has no valid header")

// Header identifies what run a journal belongs to, so a resume against
// the wrong suite fails loudly instead of merging foreign results.
type Header struct {
	Version int    `json:"v"`
	Suite   string `json:"suite"`
	Cells   int    `json:"cells"`
}

// Entry is one validated journal record as read back by Open.
type Entry struct {
	Kind string
	Data json.RawMessage
}

// CellRecord journals one completed cell: its stable index in the suite's
// cell grid plus the serializable result. Only successful results are
// journaled — a transiently failed cell must re-evaluate on resume, not
// replay its failure.
type CellRecord struct {
	Index  int             `json:"i"`
	Result json.RawMessage `json:"r"`
}

// KernelRecord journals one computed Monte-Carlo kernel estimate under
// its full cache coordinates (both fingerprint halves), so a resumed run
// can seed the registry's estimate cache exactly.
type KernelRecord struct {
	Fingerprint uint64  `json:"fnv"`
	Mix         uint64  `json:"mix"`
	Vertices    int     `json:"vertices"`
	Workers     int     `json:"workers"`
	Trials      int     `json:"trials"`
	Seed        int64   `json:"seed"`
	Value       float64 `json:"value"`
}

// line is the wire shape of one record: the CRC32-IEEE of the exact Data
// bytes, the record kind, then the payload. Data is a RawMessage on both
// sides, so the checksum covers byte-identical content.
type line struct {
	CRC  string          `json:"c"`
	Kind string          `json:"k"`
	Data json.RawMessage `json:"d"`
}

// Journal is an append-only checkpoint file. Appends are safe for
// concurrent use — evaluation workers journal cells as they complete.
type Journal struct {
	mu        sync.Mutex
	f         *os.File
	sinceSync int
	closed    bool
}

// Create starts a fresh journal at path, truncating any previous one, and
// makes the header durable before returning — so a journal that exists on
// disk always identifies its run, however early the process dies after.
func Create(path string, h Header) (*Journal, error) {
	h.Version = Version
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ckpt: create: %w", err)
	}
	j := &Journal{f: f}
	if err := j.Append(KindHeader, h); err != nil {
		f.Close()
		return nil, err
	}
	if err := j.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// Open reads a journal back for resume: every record validates its CRC,
// and the first invalid line — a record torn by the kill — drops it and
// everything after. When a tail was dropped, the valid prefix is rewritten
// through a tmp file and atomically renamed over the journal before it
// reopens for append, so the file on disk is always wholly valid. The
// returned journal appends after the surviving records.
func Open(path string) (*Journal, Header, []Entry, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, Header{}, nil, fmt.Errorf("ckpt: open: %w", err)
	}
	entries, validLen := scan(raw)
	if len(entries) == 0 || entries[0].Kind != KindHeader {
		return nil, Header{}, nil, fmt.Errorf("ckpt: open %s: %w", path, ErrEmpty)
	}
	var h Header
	if err := json.Unmarshal(entries[0].Data, &h); err != nil {
		return nil, Header{}, nil, fmt.Errorf("ckpt: open %s: %w", path, ErrEmpty)
	}
	if h.Version > Version {
		return nil, Header{}, nil, fmt.Errorf("ckpt: open %s: journal version %d newer than supported %d", path, h.Version, Version)
	}
	if validLen < len(raw) {
		// Torn tail: rewrite the valid prefix atomically so the journal on
		// disk never carries the corrupt bytes into another crash.
		if err := rewrite(path, raw[:validLen]); err != nil {
			return nil, Header{}, nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, Header{}, nil, fmt.Errorf("ckpt: open: %w", err)
	}
	return &Journal{f: f}, h, entries[1:], nil
}

// scan walks raw line by line, returning the validated entries and how
// many bytes of prefix they cover. Validation stops at the first bad line:
// journals are append-only, so nothing after a corrupt record can be
// trusted to align.
func scan(raw []byte) ([]Entry, int) {
	var entries []Entry
	valid := 0
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 64<<10), maxLineBytes)
	off := 0
	for sc.Scan() {
		ln := sc.Bytes()
		// A final line without its newline is a torn write even if the
		// bytes happen to parse: the record was not committed.
		end := off + len(ln) + 1
		if end > len(raw) {
			break
		}
		kind, data, err := ParseLine(ln)
		if err != nil {
			break
		}
		entries = append(entries, Entry{Kind: kind, Data: data})
		off = end
		valid = end
	}
	return entries, valid
}

// ParseLine validates one journal line: JSON shape, known structure, and
// the CRC32 over the exact payload bytes. It is the unit the fuzzer
// drives — any input must either parse to a consistent record or error,
// never panic.
func ParseLine(ln []byte) (kind string, data json.RawMessage, err error) {
	var rec line
	dec := json.NewDecoder(bytes.NewReader(ln))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return "", nil, fmt.Errorf("ckpt: record: %w", err)
	}
	if dec.More() {
		return "", nil, errors.New("ckpt: record: trailing data after JSON object")
	}
	if rec.Kind == "" {
		return "", nil, errors.New("ckpt: record: missing kind")
	}
	if len(rec.Data) == 0 {
		return "", nil, errors.New("ckpt: record: missing payload")
	}
	want := fmt.Sprintf("%08x", crc32.ChecksumIEEE(rec.Data))
	if rec.CRC != want {
		return "", nil, fmt.Errorf("ckpt: record: crc mismatch (have %q, want %q)", rec.CRC, want)
	}
	return rec.Kind, rec.Data, nil
}

// rewrite replaces path with content via tmp+fsync+rename — the atomic
// truncation that drops a torn tail.
func rewrite(path string, content []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("ckpt: truncate: %w", err)
	}
	tmpPath := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("ckpt: truncate: %w", err)
	}
	if _, err := tmp.Write(content); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmpPath, path); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("ckpt: truncate: %w", err)
	}
	return nil
}

// Append journals one record: payload marshaled, checksummed, written as
// one line. The write reaches the OS before Append returns (a SIGKILL
// loses nothing already appended); it reaches the disk at the next
// segment roll or Sync.
func (j *Journal) Append(kind string, payload any) error {
	data, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("ckpt: append: %w", err)
	}
	rec := line{CRC: fmt.Sprintf("%08x", crc32.ChecksumIEEE(data)), Kind: kind, Data: data}
	out, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("ckpt: append: %w", err)
	}
	out = append(out, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("ckpt: append to closed journal")
	}
	if _, err := j.f.Write(out); err != nil {
		return fmt.Errorf("ckpt: append: %w", err)
	}
	j.sinceSync++
	if j.sinceSync >= syncEvery {
		j.sinceSync = 0
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("ckpt: sync: %w", err)
		}
	}
	return nil
}

// Sync forces everything appended so far to disk.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.sinceSync = 0
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("ckpt: sync: %w", err)
	}
	return nil
}

// Close syncs and closes the journal. Safe to call twice.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	serr := j.f.Sync()
	cerr := j.f.Close()
	if serr != nil {
		return fmt.Errorf("ckpt: close: %w", serr)
	}
	if cerr != nil {
		return fmt.Errorf("ckpt: close: %w", cerr)
	}
	return nil
}
