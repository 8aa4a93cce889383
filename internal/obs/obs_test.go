package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

// resetRecorder guards the process-global recorder for tests.
func resetRecorder(t *testing.T) {
	t.Helper()
	SetRecorder(nil)
	t.Cleanup(func() { SetRecorder(nil) })
}

func TestStartWithoutRecorderIsFree(t *testing.T) {
	resetRecorder(t)
	ctx := context.Background()
	got, span := Start(ctx, "noop")
	if span != nil {
		t.Fatalf("no recorder installed, want nil span, got %+v", span)
	}
	if got != ctx {
		t.Fatal("no recorder installed: Start must return the caller's ctx unchanged")
	}
	// Every method must tolerate the nil span.
	span.SetString("k", "v")
	span.SetInt("n", 1)
	span.SetError(context.Canceled)
	span.End()
	if span.Duration() != 0 || span.Name() != "" || span.ID() != 0 {
		t.Fatal("nil span accessors must return zero values")
	}

	allocs := testing.AllocsPerRun(100, func() {
		c, s := Start(ctx, "hot")
		s.SetInt("i", 42)
		s.End()
		_ = c
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocated %.1f objects per span", allocs)
	}
}

func TestSpanHierarchyAndTracePropagation(t *testing.T) {
	resetRecorder(t)
	buf := NewTraceBuffer(16)
	SetRecorder(buf)

	trace := NewTraceID()
	ctx := WithTrace(context.Background(), trace)
	ctx, root := Start(ctx, "suite")
	cctx, cell := Start(ctx, "cell")
	cell.SetString("name", "fig2")
	_, kernel := Start(cctx, "kernel")
	kernel.End()
	cell.End()
	root.End()

	if buf.Begun() != 3 || buf.Ended() != 3 {
		t.Fatalf("begun=%d ended=%d, want 3/3", buf.Begun(), buf.Ended())
	}
	if buf.Open() != 0 {
		t.Fatalf("open spans: %d", buf.Open())
	}
	spans := buf.Spans()
	if len(spans) != 3 {
		t.Fatalf("retained %d spans", len(spans))
	}
	// Arrival order is end order: kernel, cell, suite.
	k, c, s := spans[0], spans[1], spans[2]
	if k.Name() != "kernel" || c.Name() != "cell" || s.Name() != "suite" {
		t.Fatalf("unexpected order: %s %s %s", k.Name(), c.Name(), s.Name())
	}
	if k.Parent() != c.ID() || c.Parent() != s.ID() || s.Parent() != 0 {
		t.Fatal("parent links broken")
	}
	for _, sp := range spans {
		if sp.Trace() != trace {
			t.Fatalf("span %s lost the trace id", sp.Name())
		}
		if sp.EndTime().Before(sp.StartTime()) {
			t.Fatalf("span %s ends before it starts", sp.Name())
		}
	}
	if got := c.Attrs(); len(got) != 1 || got[0].Key != "name" || got[0].Value != "fig2" {
		t.Fatalf("cell attrs = %+v", c.Attrs())
	}
	if TraceFrom(cctx) != trace {
		t.Fatal("TraceFrom should surface the span's trace id")
	}
}

func TestTraceBufferDropAccounting(t *testing.T) {
	resetRecorder(t)
	buf := NewTraceBuffer(2)
	SetRecorder(buf)
	for i := 0; i < 5; i++ {
		_, s := Start(context.Background(), "s")
		s.End()
	}
	if buf.Ended() != 5 || len(buf.Spans()) != 2 || buf.Dropped() != 3 {
		t.Fatalf("ended=%d retained=%d dropped=%d", buf.Ended(), len(buf.Spans()), buf.Dropped())
	}
}

func TestDoubleEndRecordsOnce(t *testing.T) {
	resetRecorder(t)
	buf := NewTraceBuffer(4)
	SetRecorder(buf)
	_, s := Start(context.Background(), "once")
	s.End()
	s.End()
	if buf.Ended() != 1 {
		t.Fatalf("double End recorded %d times", buf.Ended())
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	trace := NewTraceID()
	span := NewSpanID()
	h := FormatTraceparent(trace, span)
	gotTrace, gotSpan, ok := ParseTraceparent(h)
	if !ok || gotTrace != trace || gotSpan != span {
		t.Fatalf("round trip failed: %q -> %v %d %v", h, gotTrace, gotSpan, ok)
	}
	for _, bad := range []string{
		"",
		"00-abc-def-01",
		"01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // wrong version
		"00-00000000000000000000000000000000-b7ad6b7169203331-01", // zero trace
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", // zero span
		"00-0af7651916cd43dd8448eb211c80319X-b7ad6b7169203331-01", // bad hex
	} {
		if _, _, ok := ParseTraceparent(bad); ok {
			t.Fatalf("ParseTraceparent(%q) accepted invalid input", bad)
		}
	}
}

func TestConcurrentSpansAndCounters(t *testing.T) {
	resetRecorder(t)
	buf := NewTraceBuffer(4096)
	SetRecorder(buf)
	var ctr Counter
	var wg sync.WaitGroup
	const goroutines, each = 8, 100
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				_, s := Start(context.Background(), "work")
				ctr.Inc()
				s.End()
			}
		}()
	}
	wg.Wait()
	if got := ctr.Value(); got != goroutines*each {
		t.Fatalf("counter = %d, want %d", got, goroutines*each)
	}
	if buf.Open() != 0 || buf.Ended() != goroutines*each {
		t.Fatalf("open=%d ended=%d", buf.Open(), buf.Ended())
	}
}

func TestSpanDurationUsesMonotonicClock(t *testing.T) {
	resetRecorder(t)
	buf := NewTraceBuffer(1)
	SetRecorder(buf)
	_, s := Start(context.Background(), "tick")
	time.Sleep(2 * time.Millisecond)
	s.End()
	if d := s.Duration(); d < time.Millisecond {
		t.Fatalf("duration %v too short for a 2ms sleep", d)
	}
}
