package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/httpserve"
	"repro/internal/metrics"
	"repro/internal/openset"
	"repro/internal/serve"
)

// worker is one fleet member wired as `fhc serve -http` wires it: its
// own classifier loaded from the artifact, a serving engine, an
// extraction collector and a drift detector seeded from the artifact's
// calibration.
type worker struct {
	name   string
	engine *serve.Engine
	coll   *collector.Collector
	api    *httpserve.Server
	srv    *http.Server
	done   chan error
}

// fleet is the in-process serving tier: one consistent-hash router in
// front of the workers, all on loopback TCP.
type fleet struct {
	addr      string // router host:port
	router    *cluster.Router
	routerSrv *http.Server
	routerErr chan error
	workers   []*worker
}

// startFleet brings up n workers and the router over them and waits
// until the router reports ready. wrap, when non-nil, wraps each
// worker's backend (the benchmark's tests inject wrong answers with it).
func startFleet(artifact string, n int, tr *tracer, wrap func(serve.Backend) serve.Backend) (*fleet, error) {
	f := &fleet{}
	specs := make([]cluster.WorkerSpec, 0, n)
	for i := 0; i < n; i++ {
		w, addr, err := startWorker("w"+strconv.Itoa(i), artifact, tr, wrap)
		if err != nil {
			f.close()
			return nil, err
		}
		f.workers = append(f.workers, w)
		specs = append(specs, cluster.WorkerSpec{Name: w.name, URL: "http://" + addr})
	}
	rt, err := cluster.New(specs, cluster.Options{})
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = rt
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	f.addr = ln.Addr().String()
	f.routerSrv = &http.Server{Handler: tr.routeMiddleware(rt.Handler()), ReadHeaderTimeout: 10 * time.Second}
	f.routerErr = make(chan error, 1)
	go func() { f.routerErr <- f.routerSrv.Serve(ln) }()
	if err := f.waitReady(); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func startWorker(name, artifact string, tr *tracer, wrap func(serve.Backend) serve.Backend) (*worker, string, error) {
	clf, err := core.LoadFile(artifact)
	if err != nil {
		return nil, "", err
	}
	var backend serve.Backend = clf
	if wrap != nil {
		backend = wrap(backend)
	}
	engine := serve.New(tr.backend(backend), serve.Options{})
	coll := collector.New(collector.Options{})
	reg := metrics.NewRegistry()
	var det *openset.Detector
	if cal := clf.Calibration(); cal != nil {
		det = openset.NewDetector(cal.Baseline, openset.DriftOptions{Registry: reg})
	}
	api := httpserve.New(engine, httpserve.Options{Collector: coll, Registry: reg, Drift: det})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		engine.Close()
		return nil, "", err
	}
	w := &worker{
		name:   name,
		engine: engine,
		coll:   coll,
		api:    api,
		srv:    &http.Server{Handler: tr.handleMiddleware(api.Handler()), ReadHeaderTimeout: 10 * time.Second},
		done:   make(chan error, 1),
	}
	go func() { w.done <- w.srv.Serve(ln) }()
	return w, ln.Addr().String(), nil
}

// waitReady polls the router's and every worker's readiness.
func (f *fleet) waitReady() error {
	urls := []string{"http://" + f.addr + "/readyz"}
	for _, ws := range f.router.WorkerStates() {
		urls = append(urls, ws.URL+"/readyz")
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, u := range urls {
		for {
			resp, err := http.Get(u)
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("fleet not ready: %s", u)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// close shuts the router and every worker down and waits for their
// serve loops to return.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if f.routerSrv != nil {
		_ = f.routerSrv.Shutdown(ctx) // best effort: the process is done with the fleet
		if err := <-f.routerErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Printf("router serve: %v\n", err)
		}
	}
	if f.router != nil {
		f.router.Close()
	}
	for _, w := range f.workers {
		_ = w.api.Shutdown(ctx) // flips readiness; the API's own listener never ran
		_ = w.srv.Shutdown(ctx)
		if err := <-w.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Printf("worker %s serve: %v\n", w.name, err)
		}
		w.engine.Close()
	}
}

// counters is the sum of the public layer counters across the fleet.
type counters struct {
	engine serve.Stats
	coll   collector.Stats
	router cluster.Stats
}

func (f *fleet) counters() counters {
	var c counters
	for _, w := range f.workers {
		s := w.engine.Stats()
		c.engine.Hits += s.Hits
		c.engine.Misses += s.Misses
		c.engine.Coalesced += s.Coalesced
		c.engine.Batches += s.Batches
		c.engine.BatchedSamples += s.BatchedSamples
		cs := w.coll.Stats()
		c.coll.Seen += cs.Seen
		c.coll.CacheHits += cs.CacheHits
	}
	c.router = f.router.Stats()
	return c
}

// sub returns the counter deltas c - base.
func (c counters) sub(base counters) counters {
	return counters{
		engine: serve.Stats{
			Hits:           c.engine.Hits - base.engine.Hits,
			Misses:         c.engine.Misses - base.engine.Misses,
			Coalesced:      c.engine.Coalesced - base.engine.Coalesced,
			Batches:        c.engine.Batches - base.engine.Batches,
			BatchedSamples: c.engine.BatchedSamples - base.engine.BatchedSamples,
		},
		coll: collector.Stats{
			Seen:      c.coll.Seen - base.coll.Seen,
			CacheHits: c.coll.CacheHits - base.coll.CacheHits,
		},
		router: cluster.Stats{
			HedgesFired: c.router.HedgesFired - base.router.HedgesFired,
			Retries:     c.router.Retries - base.router.Retries,
		},
	}
}
