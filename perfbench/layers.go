package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/dataset"
	"repro/internal/extract"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/ssdeep"
)

// ladderInputs bounds how many of a workload's inputs the stage ladder
// replays; groupCalls is how many sub-microsecond calls one timing
// sample covers, so clock reads do not dominate what they measure.
const (
	ladderInputs = 200
	groupCalls   = 64
)

// ladder is the per-stage replay of a workload's own inputs through the
// public functions each layer is made of, one stage at a time.
type ladder struct {
	inputs int
	bytes  int64
	// Per-input durations in milliseconds.
	fromReader, sha, ctph, stringsView, symbolsView, featurize, predict []float64
	// Per-call durations in microseconds, each from a group of calls.
	decide, lookup []float64
	// Chunk-level replay of batch-report, in milliseconds per chunk.
	featurizeBatch, predictBatch, decideBatch []float64
	readerTotal, ctphTotal                    time.Duration
}

// ladderBodies returns the byte inputs of the workload's traced phase in
// the order it sent them: the uploaded bodies on cold-upload, the probed
// binaries on warm-probe, the chunked samples' binaries on batch-report.
func (r *runner) ladderBodies(traced *phase) (bodies [][]byte, keys []serve.Key) {
	held := r.env.held
	for i := 0; i < len(traced.records) && len(bodies) < ladderInputs; i++ {
		j := traced.records[i].j
		switch r.cfg.workload {
		case "cold-upload":
			idx, tr := r.coldInput(j)
			b := append(append([]byte(nil), held[idx].bin...), tr...)
			bodies = append(bodies, b)
			keys = append(keys, sha256.Sum256(b))
		case "warm-probe":
			idx := r.probeIndex(j)
			bodies = append(bodies, held[idx].bin)
			keys = append(keys, held[idx].sample.SHA256)
		}
	}
	if r.cfg.workload == "batch-report" {
		for _, i := range r.order[:min(len(r.order), ladderInputs)] {
			bodies = append(bodies, held[i].bin)
			keys = append(keys, held[i].sample.SHA256)
		}
	}
	return bodies, keys
}

// runLadder times every stage on the given inputs.
func (r *runner) runLadder(bodies [][]byte, keys []serve.Key) (*ladder, error) {
	mdl, err := loadModel(r.env.artifact)
	if err != nil {
		return nil, err
	}
	clf := r.env.ref
	lad := &ladder{inputs: len(bodies)}
	samples := make([]dataset.Sample, len(bodies))
	ms := func(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Millisecond) }
	for i, b := range bodies {
		lad.bytes += int64(len(b))
		t0 := time.Now()
		s, _, err := dataset.FromReader("", "", "", bytes.NewReader(b), 0)
		d := time.Since(t0)
		if err != nil {
			return nil, err
		}
		lad.readerTotal += d
		lad.fromReader = append(lad.fromReader, float64(d)/float64(time.Millisecond))
		samples[i] = s

		t0 = time.Now()
		_ = sha256.Sum256(b)
		lad.sha = append(lad.sha, ms(t0))

		t0 = time.Now()
		if _, err := ssdeep.HashReaderStreaming(bytes.NewReader(b)); err != nil {
			return nil, err
		}
		d = time.Since(t0)
		lad.ctphTotal += d
		lad.ctph = append(lad.ctph, float64(d)/float64(time.Millisecond))

		t0 = time.Now()
		if text := extract.StringsText(b, 0); len(text) > 0 {
			_, _ = ssdeep.HashBytes(text) // the timing is the point; FromReader above checked the input
		}
		lad.stringsView = append(lad.stringsView, ms(t0))

		t0 = time.Now()
		if text, err := extract.SymbolsText(b); err == nil && len(text) > 0 {
			_, _ = ssdeep.HashBytes(text)
		}
		lad.symbolsView = append(lad.symbolsView, ms(t0))

		t0 = time.Now()
		x := clf.Featurize(&samples[i])
		lad.featurize = append(lad.featurize, ms(t0))

		t0 = time.Now()
		mdl.PredictProbaBatch([][]float64{x}, 1)
		lad.predict = append(lad.predict, ms(t0))
	}

	wide := clf.PredictProbaBatch(samples)
	for g := 0; g < 4*len(wide)/groupCalls+8; g++ {
		t0 := time.Now()
		for k := 0; k < groupCalls; k++ {
			clf.PredictFromProba(wide[(g*groupCalls+k)%len(wide)])
		}
		lad.decide = append(lad.decide, float64(time.Since(t0))/float64(time.Microsecond)/groupCalls)
	}

	// Each key is looked up on the worker that holds it, found untimed.
	owners := make([]*serve.Engine, len(keys))
	for i, k := range keys {
		owners[i] = r.env.fleet.workers[0].engine
		for _, w := range r.env.fleet.workers {
			if _, ok := w.engine.Lookup(k); ok {
				owners[i] = w.engine
			}
		}
	}
	for g := 0; g < 4*len(keys)/groupCalls+8; g++ {
		t0 := time.Now()
		for k := 0; k < groupCalls; k++ {
			i := (g*groupCalls + k) % len(keys)
			owners[i].Lookup(keys[i])
		}
		lad.lookup = append(lad.lookup, float64(time.Since(t0))/float64(time.Microsecond)/groupCalls)
	}

	if r.cfg.workload == "batch-report" {
		for _, chunk := range r.chunks {
			t0 := time.Now()
			X := clf.FeaturizeBatch(chunk)
			lad.featurizeBatch = append(lad.featurizeBatch, ms(t0))
			t0 = time.Now()
			mdl.PredictProbaBatch(X, 0)
			lad.predictBatch = append(lad.predictBatch, ms(t0))
			rows := clf.PredictProbaBatch(chunk)
			t0 = time.Now()
			for _, row := range rows {
				clf.PredictFromProba(row)
			}
			lad.decideBatch = append(lad.decideBatch, ms(t0))
		}
	}
	return lad, nil
}

// loadModel decodes the bare model payload of an artifact, so the ladder
// can time model inference apart from featurisation.
func loadModel(artifact string) (model.Model, error) {
	f, err := os.Open(artifact)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var dto struct {
		Kind  string          `json:"model_kind"`
		Model json.RawMessage `json:"model"`
	}
	if err := json.NewDecoder(f).Decode(&dto); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", artifact, err)
	}
	return model.Unmarshal(dto.Kind, dto.Model)
}

// reqSpans is one traced request's chain of spans, in milliseconds.
type reqSpans struct {
	client, route, handle, window float64
}

// join links each request of a traced phase to its route span, the
// worker handle span under it and, on cold-upload, the engine window
// that carried its content key. windows lists every window the tracer
// recorded.
func (r *runner) join(p *phase) (reqs []reqSpans, windows []float64, windowSizes []int) {
	t := r.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	handles := make(map[uint64]span, len(t.handles))
	for _, s := range t.handles {
		handles[s.id] = s
	}
	routes := make(map[uint64]span, len(t.routes))
	for _, s := range t.routes {
		routes[s.id] = s
	}
	byKey := map[serve.Key]float64{}
	for _, w := range t.windows {
		d := float64(w.end.Sub(w.start)) / float64(time.Millisecond)
		windows = append(windows, d)
		windowSizes = append(windowSizes, len(w.keys))
		for _, k := range w.keys {
			byKey[k] = d
		}
	}
	for i := range p.records {
		rec := &p.records[i]
		rs, ok := routes[rec.route]
		if !ok {
			continue
		}
		q := reqSpans{
			client: float64(rec.lat) / float64(time.Millisecond),
			route:  float64(rs.dur()) / float64(time.Millisecond),
		}
		if hs, ok := handles[rs.child]; ok {
			q.handle = float64(hs.dur()) / float64(time.Millisecond)
		}
		if r.cfg.workload == "cold-upload" {
			q.window = byKey[r.coldKey(rec)]
		}
		reqs = append(reqs, q)
	}
	return reqs, windows, windowSizes
}

// coldKey is the content key of a cold upload: its held-out binary
// followed by its trailer.
func (r *runner) coldKey(rec *record) serve.Key {
	idx, tr := r.coldInput(rec.j)
	h := sha256.New()
	h.Write(r.env.held[idx].bin)
	h.Write(tr)
	var k serve.Key
	h.Sum(k[:0])
	return k
}

// perLayer reports the traced run's per-layer metrics and prints where
// a request's time goes. untraced is the untraced timed phase (the
// overhead baseline, and the phase allocations were counted over).
//
// A layer the workload never reaches (the engine's batcher on
// warm-probe; the router, the HTTP layer and the batcher on
// batch-report) reads 0, with its base of 0 printed beside it.
func perLayer(rep *report, r *runner, untraced, traced *phase, delta counters, ms0, ms1 *runtime.MemStats) error {
	bodies, keys := r.ladderBodies(traced)
	lad, err := r.runLadder(bodies, keys)
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	reqs, windows, sizes := r.join(traced)
	col := func(f func(q reqSpans) float64) []float64 {
		out := make([]float64, len(reqs))
		for i, q := range reqs {
			out[i] = f(q)
		}
		return out
	}
	routeP50 := median(col(func(q reqSpans) float64 { return q.route }))
	clusterSelf := median(col(func(q reqSpans) float64 { return q.route - q.handle }))
	handleP50 := median(col(func(q reqSpans) float64 { return q.handle }))
	httpSelf := median(col(func(q reqSpans) float64 { return q.handle - q.window }))
	clientSelf := median(col(func(q reqSpans) float64 { return q.client - q.route }))
	windowSum := 0
	for _, n := range sizes {
		windowSum += n
	}

	ua, uf := untraced.totals()
	ta, tf := traced.totals()
	untracedRate := float64(ua-uf) / untraced.wall.Seconds()
	tracedRate := float64(ta-tf) / traced.wall.Seconds()
	lookups := float64(delta.engine.Hits + delta.engine.Misses + delta.engine.Coalesced)
	routed := len(traced.records)
	if r.cfg.workload == "batch-report" {
		routed = 0
	}

	rep.set("dataset.from_reader_ms_p50", median(lad.fromReader), "ms", fmt.Sprintf("ladder, %d inputs", lad.inputs))
	rep.set("dataset.from_reader_MBps", ratio(float64(lad.bytes)/1e6, lad.readerTotal.Seconds()), "MB/s",
		fmt.Sprintf("%d bytes", lad.bytes))
	rep.set("ssdeep.hash_MBps", ratio(float64(lad.bytes)/1e6, lad.ctphTotal.Seconds()), "MB/s", "HashReaderStreaming, one CTPH pass")
	rep.set("core.featurize_ms_p50", median(lad.featurize), "ms", "Classifier.Featurize, one sample")
	rep.set("model.predict_us_p50", 1000*median(lad.predict), "us", "model.PredictProbaBatch, one row")
	rep.set("core.decide_us_p50", median(lad.decide), "us", fmt.Sprintf("PredictFromProba, groups of %d", groupCalls))
	rep.set("serve.window_ms_p50", median(windows), "ms", fmt.Sprintf("base %d windows", len(windows)))
	rep.set("serve.window_size_mean", ratio(float64(windowSum), float64(len(sizes))), "count", fmt.Sprintf("base %d windows", len(sizes)))
	rep.set("serve.hit_ratio", ratio(float64(delta.engine.Hits), lookups), "ratio", fmt.Sprintf("base %.0f engine lookups", lookups))
	rep.set("collector.hit_ratio", ratio(float64(delta.coll.CacheHits), float64(delta.coll.Seen)), "ratio",
		fmt.Sprintf("base %d collector lookups", delta.coll.Seen))
	rep.set("serve.coalesced", float64(delta.engine.Coalesced), "count", "")
	rep.set("serve.lookup_us_p50", median(lad.lookup), "us", fmt.Sprintf("Engine.Lookup, groups of %d", groupCalls))
	rep.set("cluster.route_ms_p50", routeP50, "ms", fmt.Sprintf("base %d routed requests", len(reqs)))
	rep.set("cluster.self_ms_p50", clusterSelf, "ms", "route minus worker handle")
	rep.set("httpserve.handle_ms_p50", handleP50, "ms", "")
	rep.set("httpserve.self_ms_p50", httpSelf, "ms", "handle minus engine window")
	rep.set("cluster.hedges_fired", float64(delta.router.HedgesFired), "count", fmt.Sprintf("base %d routed requests", routed))
	rep.set("cluster.retries", float64(delta.router.Retries), "count", fmt.Sprintf("base %d routed requests", routed))
	rep.set("process.allocs_per_classify", ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(ua)), "count",
		fmt.Sprintf("untraced phase, client and fleet together, base %d classifications", ua))
	rep.set("process.alloc_KiB_per_classify", ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024, float64(ua)), "KiB", "")
	rep.set("bench.trace_overhead_ratio", ratio(tracedRate, untracedRate), "ratio",
		fmt.Sprintf("traced %.1f/s vs untraced %.1f/s", tracedRate, untracedRate))

	printTimeTable(rep.out, r, traced, lad, delta, clientSelf, clusterSelf, httpSelf, median(windows))
	return nil
}

// printTimeTable prints, per stage on the workload's request path, its
// self time and its share of the traced end-to-end median, with the
// split inside ingest and inside the engine window.
func printTimeTable(out io.Writer, r *runner, traced *phase, lad *ladder, delta counters, clientSelf, clusterSelf, httpSelf, window float64) {
	lat := make([]float64, len(traced.records))
	for i := range traced.records {
		lat[i] = float64(traced.records[i].lat) / float64(time.Millisecond)
	}
	e2e := median(lat)
	unit := "request"
	if r.cfg.workload == "batch-report" {
		unit = fmt.Sprintf("chunk of %d", batchChunk)
	}
	fmt.Fprintf(out, "\nwhere a %s's time goes: %s, end-to-end p50 %.4f ms over %d traced operations\n",
		unit, r.cfg.workload, e2e, len(lat))
	fmt.Fprintf(out, "%-40s %12s %8s  %s\n", "stage", "self_p50_ms", "share", "source")
	row := func(name string, v float64, src string) {
		fmt.Fprintf(out, "%-40s %12.4f %7.1f%%  %s\n", name, v, 100*ratio(v, e2e), src)
	}
	ingest := median(lad.fromReader)
	sha, ctph := median(lad.sha), median(lad.ctph)
	strs, syms := median(lad.stringsView), median(lad.symbolsView)
	switch r.cfg.workload {
	case "cold-upload":
		row("client + loopback", clientSelf, "client latency minus route span")
		row("cluster router (self)", clusterSelf, "route span minus handle span")
		row("httpserve (self: body, ingest, encode)", httpSelf, "handle span minus window span")
		row("  ingest: dataset.FromReader", ingest, "ladder")
		row("    SHA-256", sha, "ladder")
		row("    CTPH file pass", ctph, "ladder")
		row("    strings view + CTPH", strs, "ladder")
		row("    symbols view + CTPH", syms, "ladder")
		row("    rest (spill, needed, overlap)", ingest-sha-ctph-strs-syms, "difference")
		row("serve window (featurize+model)", window, "window span")
		row("  core.Featurize", median(lad.featurize), "ladder")
		row("  model.PredictProbaBatch", median(lad.predict), "ladder")
		row("  core.PredictFromProba", median(lad.decide)/1000, "ladder")
	case "warm-probe":
		row("client + loopback", clientSelf, "client latency minus route span")
		row("cluster router (self)", clusterSelf, "route span minus handle span")
		row("httpserve (self: parse, lookup, encode)", httpSelf, "handle span")
		row("  serve.Engine.Lookup", median(lad.lookup)/1000, "ladder")
		fmt.Fprintf(out, "not on the path: ingest (collector lookups +%d), featurize/model (engine misses +%d, windows %d)\n",
			delta.coll.Seen, delta.engine.Misses, delta.engine.Batches)
	case "batch-report":
		row("core.Classifier.FeaturizeBatch", median(lad.featurizeBatch), "ladder, per chunk")
		row("model.PredictProbaBatch", median(lad.predictBatch), "ladder, per chunk")
		row("core.PredictFromProba", median(lad.decideBatch), "ladder, per chunk")
		fmt.Fprintf(out, "not on the path: HTTP and ingest (collector lookups +%d, engine lookups +%d)\n",
			delta.coll.Seen, delta.engine.Hits+delta.engine.Misses)
	}
	fmt.Fprintln(out)
}
