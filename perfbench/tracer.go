package main

import (
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/serve"
)

// Span-linking headers. The route middleware names its span on the
// router's reply; the handle middleware names its span on the worker's
// reply, which the router copies back verbatim, so the route span learns
// its child from its own response headers.
const (
	routeSpanHeader  = "Perfbench-Route-Span"
	handleSpanHeader = "Perfbench-Handle-Span"
)

// span is one timed call at a layer boundary. child links a route span
// to the worker handle span that served it (0 when none).
type span struct {
	id, child  uint64
	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// window is one micro-batch the serving engine ran through the backend,
// with the content keys of its samples so requests can find theirs.
type window struct {
	start, end time.Time
	keys       []serve.Key
}

// tracer records spans in memory, only while on. Every layer wrapper is
// installed for the whole run and checks the switch first, so untraced
// phases pay one atomic load per call.
type tracer struct {
	on   atomic.Bool
	next atomic.Uint64

	mu      sync.Mutex
	routes  []span
	handles []span
	windows []window
}

// routeMiddleware times Router.Handler.
func (t *tracer) routeMiddleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		id := t.next.Add(1)
		w.Header()[routeSpanHeader] = []string{strconv.FormatUint(id, 10)}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		child, _ := strconv.ParseUint(w.Header().Get(handleSpanHeader), 10, 64)
		t.mu.Lock()
		t.routes = append(t.routes, span{id: id, child: child, start: start, end: end})
		t.mu.Unlock()
	})
}

// handleMiddleware times a worker's Server.Handler.
func (t *tracer) handleMiddleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		id := t.next.Add(1)
		w.Header()[handleSpanHeader] = []string{strconv.FormatUint(id, 10)}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		t.mu.Lock()
		t.handles = append(t.handles, span{id: id, start: start, end: end})
		t.mu.Unlock()
	})
}

// backend wraps a serving backend so each micro-batch window is timed.
func (t *tracer) backend(b serve.Backend) serve.Backend {
	return tracedBackend{Backend: b, t: t}
}

type tracedBackend struct {
	serve.Backend
	t *tracer
}

func (b tracedBackend) PredictProbaBatch(samples []dataset.Sample) [][]float64 {
	if !b.t.on.Load() {
		return b.Backend.PredictProbaBatch(samples)
	}
	start := time.Now()
	out := b.Backend.PredictProbaBatch(samples)
	end := time.Now()
	keys := make([]serve.Key, len(samples))
	for i := range samples {
		keys[i] = samples[i].SHA256
	}
	b.t.mu.Lock()
	b.t.windows = append(b.t.windows, window{start: start, end: end, keys: keys})
	b.t.mu.Unlock()
	return out
}
