// Package obs is the repo's zero-dependency observability substrate:
// hierarchical spans recorded through the existing context plumbing, a
// Chrome/Perfetto trace exporter, and atomic counters plus fixed-bucket
// histograms with a Prometheus text exposition.
//
// The package is built around one discipline: when nothing is listening,
// instrumentation must cost almost nothing. Start performs a single atomic
// load of the process-wide recorder and returns a nil *Span when no
// recorder is installed; every *Span method is nil-safe, so call sites
// never branch. No recorder means no allocation on the hot path.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync/atomic"
	"time"
)

// TraceID identifies one logical request or CLI run. It is sized and
// formatted to round-trip through a W3C traceparent header.
type TraceID [16]byte

// IsZero reports whether the trace ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the 32-hex-digit form used in traceparent and logs.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// NewTraceID draws a random trace ID. The all-zero value (invalid per the
// W3C spec) is never returned.
func NewTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		if _, err := rand.Read(t[:]); err != nil {
			// crypto/rand cannot fail on the platforms we target, but a
			// deterministic fallback beats a panic in a metrics path.
			binaryFill(&t, spanIDs.Add(1))
		}
	}
	return t
}

// binaryFill spreads a counter over the ID bytes — only used if the system
// randomness source is unavailable.
func binaryFill(t *TraceID, v uint64) {
	for i := 0; i < 8; i++ {
		t[i] = byte(v >> (8 * i))
		t[i+8] = byte(^v >> (8 * i))
	}
}

// ParseTraceID parses the 32-hex-digit form. The all-zero ID is rejected,
// matching the W3C traceparent rules.
func ParseTraceID(s string) (TraceID, error) {
	var t TraceID
	if len(s) != 32 {
		return t, fmt.Errorf("trace id %q: want 32 hex digits", s)
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil {
		return TraceID{}, fmt.Errorf("trace id %q: %w", s, err)
	}
	if t.IsZero() {
		return t, fmt.Errorf("trace id %q: all-zero ids are invalid", s)
	}
	return t, nil
}

// spanIDs hands out process-unique span IDs. IDs start at 1 so zero can
// mean "no parent".
var spanIDs atomic.Uint64

// NewSpanID returns a process-unique non-zero span ID.
func NewSpanID() uint64 { return spanIDs.Add(1) }

// Attr is one key/value annotation on a span. Values are kept as strings
// at End time; the typed setters format them.
type Attr struct {
	Key   string
	Value string
}

// Span is one timed region of work. A span is owned by the goroutine that
// started it: SetX and End must not race with each other. All methods are
// nil-safe so disabled tracing needs no branches at call sites.
type Span struct {
	name   string
	trace  TraceID
	id     uint64
	parent uint64 // 0 = root
	start  time.Time
	end    time.Time
	attrs  []Attr
	rec    Recorder
	ended  bool
}

// Name returns the span's operation name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// ID returns the process-unique span ID, 0 for a nil span.
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Parent returns the parent span's ID, 0 for a root (or nil) span.
func (s *Span) Parent() uint64 {
	if s == nil {
		return 0
	}
	return s.parent
}

// Trace returns the trace ID the span belongs to.
func (s *Span) Trace() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.trace
}

// StartTime returns when the span began.
func (s *Span) StartTime() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// EndTime returns when End was called, zero while the span is open.
func (s *Span) EndTime() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.end
}

// Duration returns end-start once ended, 0 otherwise. Both stamps come
// from time.Now's monotonic clock, so the difference never goes negative.
func (s *Span) Duration() time.Duration {
	if s == nil || !s.ended {
		return 0
	}
	return s.end.Sub(s.start)
}

// Attrs returns the annotations set so far. The slice is owned by the
// span; callers must not mutate it.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	return s.attrs
}

// SetString annotates the span. No-op on a nil span.
func (s *Span) SetString(key, value string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// SetInt annotates the span with an integer value. No-op on a nil span.
func (s *Span) SetInt(key string, value int64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: fmt.Sprintf("%d", value)})
}

// SetError annotates the span with an error, if any. No-op on a nil span
// or nil error.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: "error", Value: err.Error()})
}

// End stamps the span's end time and hands it to the recorder that was
// installed when the span started. Safe to call on a nil span; calling End
// twice records once.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.end = time.Now()
	if s.rec != nil {
		s.rec.SpanEnded(s)
	}
}

// Recorder receives span lifecycle events. SpanStarted exists so a
// recorder can account for spans that never End (leak detection under
// cancellation); SpanEnded transfers ownership of the span to the
// recorder. Implementations must be safe for concurrent use.
type Recorder interface {
	SpanStarted()
	SpanEnded(*Span)
}

// recorderBox wraps the interface so an atomic.Pointer can hold it.
type recorderBox struct{ rec Recorder }

var recorder atomic.Pointer[recorderBox]

// SetRecorder installs the process-wide span recorder; nil disables
// tracing again. The previous recorder keeps any spans already routed to
// it. Intended for CLI startup and tests, not for toggling mid-request.
func SetRecorder(r Recorder) {
	if r == nil {
		recorder.Store(nil)
		return
	}
	recorder.Store(&recorderBox{rec: r})
}

// ctxKey keys context values privately to this package.
type ctxKey int

const (
	spanKey ctxKey = iota
	traceKey
)

// WithTrace tags ctx with a trace ID; spans started under it (and their
// descendants) carry the ID even before any span exists. Used by the
// serving layer to honor W3C traceparent.
func WithTrace(ctx context.Context, id TraceID) context.Context {
	return context.WithValue(ctx, traceKey, id)
}

// TraceFrom returns the trace ID carried by ctx: the enclosing span's, or
// one set by WithTrace, or zero.
func TraceFrom(ctx context.Context) TraceID {
	if s, ok := ctx.Value(spanKey).(*Span); ok && s != nil {
		return s.trace
	}
	if id, ok := ctx.Value(traceKey).(TraceID); ok {
		return id
	}
	return TraceID{}
}

// Start begins a span named name under the span (and trace) carried by
// ctx, returning a derived context carrying the new span. When no recorder
// is installed — the common case — it returns (ctx, nil) after a single
// atomic load and allocates nothing; every *Span method tolerates nil, so
// callers need no guard:
//
//	ctx, span := obs.Start(ctx, "cell")
//	defer span.End()
func Start(ctx context.Context, name string) (context.Context, *Span) {
	box := recorder.Load()
	if box == nil {
		return ctx, nil
	}
	s := &Span{
		name:  name,
		id:    spanIDs.Add(1),
		start: time.Now(),
		rec:   box.rec,
	}
	if parent, ok := ctx.Value(spanKey).(*Span); ok && parent != nil {
		s.parent = parent.id
		s.trace = parent.trace
	} else if id, ok := ctx.Value(traceKey).(TraceID); ok {
		s.trace = id
	}
	box.rec.SpanStarted()
	return context.WithValue(ctx, spanKey, s), s
}

// Traceparent round-trips the W3C trace-context header so the serving
// layer stays stdlib-only.

// ParseTraceparent extracts the trace and parent-span IDs from a W3C
// traceparent header value ("00-<32 hex>-<16 hex>-<2 hex>"). It accepts
// only version 00 and rejects all-zero IDs, per the spec.
func ParseTraceparent(h string) (TraceID, uint64, bool) {
	if len(h) != 55 || h[:3] != "00-" || h[35] != '-' || h[52] != '-' {
		return TraceID{}, 0, false
	}
	trace, err := ParseTraceID(h[3:35])
	if err != nil {
		return TraceID{}, 0, false
	}
	var span [8]byte
	if _, err := hex.Decode(span[:], []byte(h[36:52])); err != nil {
		return TraceID{}, 0, false
	}
	if _, err := hex.Decode(make([]byte, 1), []byte(h[53:55])); err != nil {
		return TraceID{}, 0, false
	}
	var sid uint64
	for _, b := range span {
		sid = sid<<8 | uint64(b)
	}
	if sid == 0 {
		return TraceID{}, 0, false
	}
	return trace, sid, true
}

// FormatTraceparent renders a version-00 traceparent header with the
// sampled flag set.
func FormatTraceparent(trace TraceID, span uint64) string {
	return fmt.Sprintf("00-%s-%016x-01", trace, span)
}
