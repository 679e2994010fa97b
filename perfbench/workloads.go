package main

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// Salts keep the per-workload input streams independent for one seed.
const (
	coldSalt  = 0xc01d
	probeSalt = 0x9b0be
	checkSalt = 0xc4ec
	chunkSalt = 0xc4a2c
)

// trailerLen is the size of the seeded trailer that makes every
// cold-upload body a distinct binary, like a recompiled near-duplicate.
const trailerLen = 32

// batchChunk is how many held-out samples one batch-report
// ClassifyBatch call classifies: enough to keep both featurize workers
// busy, few enough for thousands of chunks a run, so the latency
// quantiles are taken over several windows of windowOps chunks.
const batchChunk = 16

// maxColdChecks bounds how many cold-upload answers are re-derived with
// the reference classifier after the timed phase.
const maxColdChecks = 200

// reply is the part of a classify response the oracle checks.
type reply struct {
	Label      string  `json:"label"`
	Class      string  `json:"class"`
	Confidence float64 `json:"confidence"`
	Verdict    string  `json:"verdict"`
}

// record is one operation as the caller saw it: a request on the online
// workloads, a chunk on batch-report.
type record struct {
	j   uint64
	lat time.Duration
	at  time.Duration // completion, from the phase start
	// route is the router's span id on traced phases.
	route uint64
	// n counts the classifications in the operation, bad those that
	// failed or were wrong.
	n, bad int32
	// ans is kept on cold-upload only, for the oracle check after the
	// timed phase; warm-probe answers are checked as they arrive.
	ans *reply
}

// phase is one stretch of load with its own accounting.
type phase struct {
	name    string
	wall    time.Duration
	records []record
	// released phases keep only their totals.
	released          bool
	attempted, failed int
}

func (p *phase) totals() (attempted, failed int) {
	if p.released {
		return p.attempted, p.failed
	}
	for i := range p.records {
		attempted += int(p.records[i].n)
		failed += int(p.records[i].bad)
	}
	return attempted, failed
}

// release keeps the phase's totals and drops its records.
func (p *phase) release() {
	p.attempted, p.failed = p.totals()
	p.records, p.released = nil, true
}

// runner drives one workload against one env.
type runner struct {
	cfg  *config
	env  *env
	tr   *tracer
	next atomic.Uint64 // request number shared by every caller

	// batch-report state: the held-out set in seeded order, cut into
	// fixed chunks, and the first pass's predictions every later pass
	// must repeat bit for bit.
	order  []int
	chunks [][]dataset.Sample
	first  [][]core.Prediction
}

func newRunner(cfg *config, e *env, tr *tracer) *runner {
	return &runner{cfg: cfg, env: e, tr: tr}
}

// callers is the closed-loop concurrency of the workload: one
// connection per processor on cold-upload, one caller otherwise. Two
// warm-probe connections on two processors queue behind each other at
// every hop, which turns a 10% drift in the host's speed into a 30% move
// in the tail; one connection measures what a single waiting job sees.
func (c *config) callers() int {
	if c.workload == "cold-upload" {
		return c.conns
	}
	return 1
}

// op performs operation j of the workload on the caller's connection.
func (r *runner) op(c *clientConn, j uint64) record {
	switch r.cfg.workload {
	case "cold-upload":
		return r.coldUpload(c, j)
	case "warm-probe":
		return r.warmProbe(c, j)
	default:
		return r.batchReport(j)
	}
}

// closedLoop runs the workload's callers, each sending its next
// operation only when the previous one has completed, until d elapses.
func (r *runner) closedLoop(name string, d time.Duration) phase {
	n := r.cfg.callers()
	recs := make([][]record, n)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn := newClientConn(r.env.fleet.addr)
			defer conn.close()
			out := make([]record, 0, 4096)
			for time.Now().Before(deadline) {
				j := r.next.Add(1) - 1
				t0 := time.Now()
				rec := r.op(conn, j)
				rec.lat = time.Since(t0)
				rec.at = t0.Add(rec.lat).Sub(start)
				out = append(out, rec)
			}
			recs[c] = out
		}(c)
	}
	wg.Wait()
	p := phase{name: name, wall: time.Since(start)}
	for _, rs := range recs {
		p.records = append(p.records, rs...)
	}
	return p
}

// prepare runs the workload's untimed lead-in: the preload every probe
// will hit, or the first batch pass later passes are checked against.
func (r *runner) prepare() phase {
	switch r.cfg.workload {
	case "warm-probe":
		return r.preload()
	case "batch-report":
		return r.firstPass()
	}
	return phase{name: "prepare"}
}

// ----- cold-upload --------------------------------------------------

// coldInput returns the held-out index and trailer of upload j.
func (r *runner) coldInput(j uint64) (int, []byte) {
	h := mix64(r.cfg.seed ^ coldSalt<<32 ^ j)
	idx := int(h % uint64(len(r.env.held)))
	tr := make([]byte, trailerLen)
	binary.LittleEndian.PutUint64(tr, j)
	for k := 8; k < trailerLen; k += 8 {
		binary.LittleEndian.PutUint64(tr[k:], mix64(h+uint64(k)))
	}
	return idx, tr
}

func (r *runner) coldUpload(c *clientConn, j uint64) record {
	idx, tr := r.coldInput(j)
	rec, ans := post(c, "/v1/classify?exe=e"+strconv.Itoa(idx), octetStream, r.env.held[idx].bin, tr)
	rec.j = j
	rec.ans = &ans
	return rec
}

// checkCold re-derives a seeded subset of the phase's uploads with the
// reference classifier and marks every answer that differs as failed.
func (r *runner) checkCold(p *phase) (checked int) {
	order := make([]int, len(p.records))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return mix64(r.cfg.seed^checkSalt^p.records[order[a]].j) < mix64(r.cfg.seed^checkSalt^p.records[order[b]].j)
	})
	if len(order) > maxColdChecks {
		order = order[:maxColdChecks]
	}
	var wg sync.WaitGroup
	procs := r.cfg.conns
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(order); k += procs {
				rec := &p.records[order[k]]
				if rec.bad > 0 {
					continue
				}
				idx, tr := r.coldInput(rec.j)
				body := append(append([]byte(nil), r.env.held[idx].bin...), tr...)
				s, err := dataset.FromBinary("", "", "", body)
				if err != nil || !sameAnswer(*rec.ans, r.env.ref.Classify(&s)) {
					rec.bad = 1
				}
			}
		}(w)
	}
	wg.Wait()
	return len(order)
}

// ----- warm-probe ---------------------------------------------------

// preload uploads every held-out binary once, untimed, so every probe
// of the timed phase is a prediction-cache hit.
func (r *runner) preload() phase {
	held := r.env.held
	var wg sync.WaitGroup
	recs := make([]record, len(held))
	start := time.Now()
	var next atomic.Int64
	for c := 0; c < r.cfg.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn := newClientConn(r.env.fleet.addr)
			defer conn.close()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(held) {
					return
				}
				rec, ans := post(conn, "/v1/classify?exe=e"+strconv.Itoa(i), octetStream, held[i].bin)
				if rec.bad == 0 && !sameAnswer(ans, r.env.oracle[i]) {
					rec.bad = 1
				}
				recs[i] = rec
			}
		}()
	}
	wg.Wait()
	return phase{name: "preload", wall: time.Since(start), records: recs}
}

// probeIndex draws probe j's held-out binary by seed.
func (r *runner) probeIndex(j uint64) int {
	return int(mix64(r.cfg.seed^probeSalt<<32^j) % uint64(len(r.env.held)))
}

func (r *runner) warmProbe(c *clientConn, j uint64) record {
	idx := r.probeIndex(j)
	rec, ans := post(c, "/v1/classify", "application/json", r.env.held[idx].probe)
	if rec.bad == 0 && !sameAnswer(ans, r.env.oracle[idx]) {
		rec.bad = 1
	}
	rec.j = j
	return rec
}

// octetStream is the Content-Type of the raw upload protocol.
const octetStream = "application/octet-stream"

// post sends one classify request through the router and parses the
// reply; any transport error, non-200 or unparsable body is a failure.
func post(c *clientConn, path, contentType string, body ...[]byte) (record, reply) {
	rec := record{n: 1}
	var ans reply
	status, hdr, raw, err := c.post(path, contentType, body...)
	if err != nil || status != http.StatusOK || json.Unmarshal(raw, &ans) != nil || ans.Label == "" {
		rec.bad = 1
	}
	if hdr != nil {
		rec.route, _ = strconv.ParseUint(hdr.Get(routeSpanHeader), 10, 64)
	}
	return rec, ans
}

// ----- batch-report -------------------------------------------------

// firstPass cuts the held-out set, in seeded order, into chunks,
// classifies every chunk once, untimed, checks it against the
// one-at-a-time oracle, and keeps it as the reference for later passes.
func (r *runner) firstPass() phase {
	held := r.env.held
	r.order = make([]int, len(held))
	for i := range r.order {
		r.order[i] = i
	}
	key := func(i int) uint64 { return mix64(r.cfg.seed ^ chunkSalt<<32 ^ uint64(i)) }
	sort.Slice(r.order, func(a, b int) bool { return key(r.order[a]) < key(r.order[b]) })
	var p phase
	start := time.Now()
	for lo := 0; lo < len(held); lo += batchChunk {
		hi := min(lo+batchChunk, len(held))
		chunk := make([]dataset.Sample, 0, hi-lo)
		for _, i := range r.order[lo:hi] {
			chunk = append(chunk, held[i].sample)
		}
		t0 := time.Now()
		preds := r.env.ref.ClassifyBatch(chunk)
		rec := record{j: uint64(len(r.chunks)), lat: time.Since(t0), n: int32(len(chunk))}
		for k := range preds {
			if !samePrediction(preds[k], r.env.oracle[r.order[lo+k]]) {
				rec.bad++
			}
		}
		r.chunks = append(r.chunks, chunk)
		r.first = append(r.first, preds)
		p.records = append(p.records, rec)
	}
	p.name, p.wall = "first-pass", time.Since(start)
	return p
}

func (r *runner) batchReport(j uint64) record {
	c := int(j % uint64(len(r.chunks)))
	preds := r.env.ref.ClassifyBatch(r.chunks[c])
	rec := record{j: j, n: int32(len(preds))}
	for k := range preds {
		if !samePrediction(preds[k], r.first[c][k]) {
			rec.bad++
		}
	}
	return rec
}

// ----- correctness --------------------------------------------------

// sameAnswer reports whether a served reply carries exactly the oracle's
// label, class, verdict and confidence (bit for bit: encoding/json
// renders float64 in its shortest round-tripping form).
func sameAnswer(a reply, p core.Prediction) bool {
	return a.Label == p.Label && a.Class == p.Class && a.Verdict == string(p.Verdict) &&
		math.Float64bits(a.Confidence) == math.Float64bits(p.Confidence)
}

// samePrediction compares every field of two predictions bit for bit.
func samePrediction(a, b core.Prediction) bool {
	return a.Label == b.Label && a.Class == b.Class && a.Verdict == b.Verdict &&
		math.Float64bits(a.Confidence) == math.Float64bits(b.Confidence) &&
		math.Float64bits(a.Margin) == math.Float64bits(b.Margin) &&
		math.Float64bits(a.Evidence) == math.Float64bits(b.Evidence)
}
