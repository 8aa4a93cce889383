package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
)

// maxRequestBytes caps evaluation request bodies. The coalescing layer is
// the one place a body is read, under this limit, and it hands the bytes
// to the handler, so an oversized body is rejected identically whether or
// not it coalesces.
const maxRequestBytes = 4 << 20

// coalesceEntry is one in-flight evaluation other identical requests may
// wait on. The leader publishes its buffered response before closing done;
// followers replay it only when ok — a 200 the server would reproduce
// byte-for-byte anyway, since identical requests evaluate deterministically.
type coalesceEntry struct {
	done        chan struct{}
	status      int
	contentType string
	body        []byte
	ok          bool
}

// coalescer is the per-server single-flight table for /v1/sweep and
// /v1/plan: one entry per canonical request in flight, keyed by route and
// body hash. waiters counts requests currently parked on an entry — a test
// synchronization point, not a serving signal.
type coalescer struct {
	mu       sync.Mutex
	inflight map[string]*coalesceEntry
	waiters  atomic.Int64
}

// coalesceKey canonicalizes a request body — route plus the SHA-256 of the
// JSON with insignificant whitespace removed — so textually different but
// semantically identical requests share one evaluation. Non-JSON bodies
// don't coalesce (the handler's strict decode rejects them anyway).
func coalesceKey(route string, raw []byte) (string, bool) {
	var compact bytes.Buffer
	if err := json.Compact(&compact, raw); err != nil {
		return "", false
	}
	sum := sha256.Sum256(compact.Bytes())
	return route + ":" + string(sum[:]), true
}

// responseBuffer captures a handler's full response — headers, status,
// body — so the client gets it only once the handler has returned, and a
// coalescing leader can both answer its own client and publish the bytes
// for followers to replay.
type responseBuffer struct {
	header http.Header
	buf    bytes.Buffer
	status int
}

func newResponseBuffer() *responseBuffer {
	return &responseBuffer{header: make(http.Header)}
}

func (rb *responseBuffer) Header() http.Header { return rb.header }

func (rb *responseBuffer) WriteHeader(code int) {
	if rb.status == 0 {
		rb.status = code
	}
}

func (rb *responseBuffer) Write(b []byte) (int, error) {
	if rb.status == 0 {
		rb.status = http.StatusOK
	}
	return rb.buf.Write(b)
}

func (rb *responseBuffer) statusCode() int {
	if rb.status == 0 {
		return http.StatusOK
	}
	return rb.status
}

func (rb *responseBuffer) copyTo(w http.ResponseWriter) {
	for k, vs := range rb.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(rb.statusCode())
	w.Write(rb.buf.Bytes())
}

// coalesce wraps an evaluation handler in single-flight request coalescing:
// while one request for a canonical body is evaluating, identical requests
// wait for its answer and replay the bytes instead of re-running the whole
// evaluation — N dashboards asking for the same sweep cost one kernel pass.
// Soundness rests on the service's determinism contract: identical requests
// produce byte-identical 200s, so replaying is indistinguishable from
// re-evaluating. Only 200s replay; a leader that fails, expires or panics
// drops its entry and every waiter evaluates for itself, so one poisoned
// request can never fan its failure out to followers. Runs inside contained,
// so waiters hold admission slots — coalescing dedupes work, it does not
// widen admission. h gets the body as read here, once.
func (s *Server) coalesce(route string, h func(w http.ResponseWriter, r *http.Request, body []byte)) func(http.ResponseWriter, *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		raw, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, maxRequestBytes))
		if err != nil {
			s.badRequests.Inc()
			writeError(w, http.StatusBadRequest, "bad %s request: read body: %v", route, err)
			return
		}
		// Every path runs the handler into a responseBuffer and writes it
		// out only after the handler returns, so a panic or an encode
		// error never leaves a half-written 200 on the wire.
		run := func() *responseBuffer {
			rec := newResponseBuffer()
			h(rec, r, raw)
			return rec
		}
		key, canonical := coalesceKey(route, raw)
		if !canonical {
			run().copyTo(w)
			return
		}
		s.coal.mu.Lock()
		if e := s.coal.inflight[key]; e != nil {
			s.coal.mu.Unlock()
			s.coal.waiters.Add(1)
			select {
			case <-e.done:
				s.coal.waiters.Add(-1)
			case <-r.Context().Done():
				s.coal.waiters.Add(-1)
				s.clientGone.Inc()
				writeError(w, http.StatusServiceUnavailable, "evaluation cancelled: %v", r.Context().Err())
				return
			}
			if e.ok {
				s.coalescedTotal.Inc()
				switch route {
				case "sweep":
					s.sweeps.Inc()
				case "plan":
					s.plans.Inc()
				}
				w.Header().Set("Content-Type", e.contentType)
				w.Write(e.body)
				return
			}
			// The leader failed; evaluate for ourselves rather than replay
			// a failure that may have been the leader's alone (its deadline,
			// its disconnect, its panic).
			run().copyTo(w)
			return
		}
		e := &coalesceEntry{done: make(chan struct{})}
		s.coal.inflight[key] = e
		s.coal.mu.Unlock()
		// The release runs even when the handler panics: the entry leaves
		// the map unpublished (ok=false), waiters self-execute, and the
		// panic continues up to the containment wrapper's recover.
		defer func() {
			s.coal.mu.Lock()
			delete(s.coal.inflight, key)
			s.coal.mu.Unlock()
			close(e.done)
		}()
		rec := run()
		e.status = rec.statusCode()
		e.contentType = rec.header.Get("Content-Type")
		e.body = rec.buf.Bytes()
		e.ok = e.status == http.StatusOK
		rec.copyTo(w)
	}
}
