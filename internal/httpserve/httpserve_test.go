package httpserve

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/retrain"
	"repro/internal/rf"
	"repro/internal/serve"
	"repro/internal/synth"
)

// ----- shared fixture ---------------------------------------------------

var (
	fixOnce    sync.Once
	fixErr     error
	fixDir     string
	fixRF      *core.Classifier
	fixKNN     *core.Classifier
	fixSamples []dataset.Sample
	fixBins    [][]byte // raw binaries, index-aligned with fixSamples
	fixRFPath  string
	fixKNNPath string
)

func TestMain(m *testing.M) {
	code := m.Run()
	if fixDir != "" {
		os.RemoveAll(fixDir)
	}
	os.Exit(code)
}

// fixture trains one rf and one knn site model over a small synthetic
// corpus and persists both as swap artifacts.
func fixture(t testing.TB) {
	t.Helper()
	buildFixture()
	if fixErr != nil {
		t.Fatal(fixErr)
	}
}

func buildFixture() {
	fixOnce.Do(func() {
		corpus, err := synth.Generate([]synth.ClassSpec{
			{Name: "Alpha", Samples: 8},
			{Name: "Beta", Samples: 8},
			{Name: "Gamma", Samples: 8},
		}, synth.Options{Seed: 7})
		if err != nil {
			fixErr = err
			return
		}
		fixSamples, err = dataset.FromCorpus(corpus, 0)
		if err != nil {
			fixErr = err
			return
		}
		for i := range corpus.Samples {
			fixBins = append(fixBins, corpus.Samples[i].Binary)
		}
		fixRF, err = core.Train(fixSamples, core.Config{
			Threshold: 0.3, Seed: 11, Forest: rf.Params{NumTrees: 30},
		})
		if err != nil {
			fixErr = err
			return
		}
		fixKNN, err = core.Train(fixSamples, core.Config{
			Threshold: 0.3, Seed: 11, Model: "knn",
		})
		if err != nil {
			fixErr = err
			return
		}
		fixDir, err = os.MkdirTemp("", "httpserve-test")
		if err != nil {
			fixErr = err
			return
		}
		save := func(clf *core.Classifier, name string) (string, error) {
			path := filepath.Join(fixDir, name)
			f, err := os.Create(path)
			if err != nil {
				return "", err
			}
			defer f.Close()
			return path, clf.Save(f)
		}
		if fixRFPath, err = save(fixRF, "rf.json"); err != nil {
			fixErr = err
			return
		}
		fixKNNPath, err = save(fixKNN, "knn.json")
		fixErr = err
	})
}

// newTestServer wires a fresh engine over the rf fixture model into an
// httptest server.
func newTestServer(t *testing.T, eopt serve.Options, opt Options) (*httptest.Server, *serve.Engine, *Server) {
	t.Helper()
	fixture(t)
	engine := serve.New(fixRF, eopt)
	s := New(engine, opt)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		engine.Close()
	})
	return ts, engine, s
}

func postJSON(t *testing.T, client *http.Client, url string, body any) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func classifyOver(t *testing.T, client *http.Client, base string, bin []byte) ClassifyResponse {
	t.Helper()
	code, body := postJSON(t, client, base+"/v1/classify", ClassifyRequest{
		Exe: "job", BinaryB64: base64.StdEncoding.EncodeToString(bin),
	})
	if code != http.StatusOK {
		t.Fatalf("classify status %d: %s", code, body)
	}
	var resp ClassifyResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("classify response: %v\n%s", err, body)
	}
	return resp
}

// ----- functional tests -------------------------------------------------

// TestHTTPClassifyDifferential is the wire-level bit-identity gate:
// predictions served over HTTP equal calling Engine.Classify — and the
// classifier — directly, JSON round-trip included.
func TestHTTPClassifyDifferential(t *testing.T) {
	ts, _, _ := newTestServer(t, serve.Options{}, Options{})
	coll := collector.New(collector.Options{})
	for i, bin := range fixBins {
		got := classifyOver(t, ts.Client(), ts.URL, bin)
		sample, _, err := coll.Collect("check", bin)
		if err != nil {
			t.Fatal(err)
		}
		want := fixRF.Classify(&sample)
		if got.Label != want.Label || got.Class != want.Class || got.Confidence != want.Confidence {
			t.Fatalf("sample %d: HTTP %+v, direct %+v", i, got, want)
		}
	}
	// A duplicate submission reports the extraction-cache hit.
	if got := classifyOver(t, ts.Client(), ts.URL, fixBins[0]); !got.Cached {
		t.Fatalf("duplicate submission not marked cached: %+v", got)
	}
}

func TestHTTPBatch(t *testing.T) {
	ts, engine, _ := newTestServer(t, serve.Options{}, Options{})
	req := BatchRequest{}
	for _, bin := range fixBins[:6] {
		req.Samples = append(req.Samples, ClassifyRequest{
			Exe: "batch-job", BinaryB64: base64.StdEncoding.EncodeToString(bin),
		})
	}
	// Two bad slots in the middle: order and per-item errors must hold.
	req.Samples = append(req.Samples[:3:3],
		append([]ClassifyRequest{
			{Exe: "bad-b64", BinaryB64: "!!!not-base64!!!"},
			{Exe: "empty"},
		}, req.Samples[3:]...)...)

	code, body := postJSON(t, ts.Client(), ts.URL+"/v1/classify/batch", req)
	if code != http.StatusOK {
		t.Fatalf("batch status %d: %s", code, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(req.Samples) {
		t.Fatalf("batch returned %d results for %d samples", len(resp.Results), len(req.Samples))
	}
	coll := collector.New(collector.Options{})
	for i, r := range resp.Results {
		switch i {
		case 3, 4:
			if r.Error == "" || r.Label != "" {
				t.Fatalf("bad slot %d not an error: %+v", i, r)
			}
		default:
			bini := i
			if i > 4 {
				bini = i - 2
			}
			sample, _, err := coll.Collect("check", fixBins[bini])
			if err != nil {
				t.Fatal(err)
			}
			want := fixRF.Classify(&sample)
			if r.Label != want.Label || r.Confidence != want.Confidence {
				t.Fatalf("batch slot %d: %+v, want %+v", i, r, want)
			}
		}
	}
	if st := engine.Stats(); st.Batches == 0 {
		t.Fatalf("batch request dispatched no engine windows: %+v", st)
	}

	if code, _ := postJSON(t, ts.Client(), ts.URL+"/v1/classify/batch", BatchRequest{}); code != http.StatusBadRequest {
		t.Fatalf("empty batch accepted with %d", code)
	}
}

func TestHTTPSwap(t *testing.T) {
	ts, engine, _ := newTestServer(t, serve.Options{}, Options{})
	// Prime the cache under rf.
	pre := classifyOver(t, ts.Client(), ts.URL, fixBins[0])

	code, body := postJSON(t, ts.Client(), ts.URL+"/v1/model/swap", SwapRequest{Path: fixKNNPath})
	if code != http.StatusOK {
		t.Fatalf("swap status %d: %s", code, body)
	}
	var sw SwapResponse
	if err := json.Unmarshal(body, &sw); err != nil {
		t.Fatal(err)
	}
	if sw.ModelKind != "knn" || sw.Swaps != 1 {
		t.Fatalf("swap ack: %+v", sw)
	}

	// The resubmitted binary is answered by the new model, not the old
	// cache epoch.
	coll := collector.New(collector.Options{})
	sample, _, err := coll.Collect("check", fixBins[0])
	if err != nil {
		t.Fatal(err)
	}
	want := fixKNN.Classify(&sample)
	got := classifyOver(t, ts.Client(), ts.URL, fixBins[0])
	if got.Label != want.Label || got.Confidence != want.Confidence {
		t.Fatalf("post-swap: HTTP %+v, knn direct %+v", got, want)
	}
	_ = pre

	// A failing artifact load leaves the installed model serving.
	code, body = postJSON(t, ts.Client(), ts.URL+"/v1/model/swap", SwapRequest{Path: "/nonexistent.json"})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("bad swap status %d: %s", code, body)
	}
	if st := engine.Stats(); st.Swaps != 1 {
		t.Fatalf("failed swap changed the engine: %+v", st)
	}
	if code, _ := postJSON(t, ts.Client(), ts.URL+"/v1/model/swap", SwapRequest{}); code != http.StatusBadRequest {
		t.Fatalf("empty swap accepted with %d", code)
	}
}

// TestHTTPSwapCorruptArtifact swaps in an rf artifact whose first tree
// has one child index far out of range — a model that used to install
// cleanly and then panic the engine's batch goroutine on the first
// prediction. The decoder must refuse it with a 422 naming the node,
// and the incumbent must keep serving bit-identically, cache misses
// included.
func TestHTTPSwapCorruptArtifact(t *testing.T) {
	ts, engine, _ := newTestServer(t, serve.Options{}, Options{})
	raw, err := os.ReadFile(fixRFPath)
	if err != nil {
		t.Fatal(err)
	}
	var art map[string]any
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(&art); err != nil {
		t.Fatal(err)
	}
	tree := art["model"].(map[string]any)["Trees"].([]any)[0].(map[string]any)
	tree["Nodes"].([]any)[0].(map[string]any)["Left"] = 999999
	corrupt, err := json.Marshal(art)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rf-corrupt.json")
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}

	// The last binary is held back so the first prediction after the
	// refused swap is a cache miss through the incumbent model.
	primed := fixBins[:len(fixBins)-1]
	before := make([]ClassifyResponse, len(primed))
	for i, bin := range primed {
		classifyOver(t, ts.Client(), ts.URL, bin)
		before[i] = classifyOver(t, ts.Client(), ts.URL, bin)
	}
	code, body := postJSON(t, ts.Client(), ts.URL+"/v1/model/swap", SwapRequest{Path: path})
	if code != http.StatusUnprocessableEntity || !strings.Contains(string(body), "tree 0 node 0") {
		t.Fatalf("corrupt swap answered %d: %s", code, body)
	}
	if st := engine.Stats(); st.Swaps != 0 {
		t.Fatalf("refused swap reached the engine: %+v", st)
	}
	for i, bin := range primed {
		if got := classifyOver(t, ts.Client(), ts.URL, bin); got != before[i] {
			t.Fatalf("binary %d after refused swap: %+v, before %+v", i, got, before[i])
		}
	}
	last := &fixSamples[len(fixSamples)-1]
	want := fixRF.Classify(last)
	got := classifyOver(t, ts.Client(), ts.URL, fixBins[len(fixBins)-1])
	if got.Label != want.Label || got.Confidence != want.Confidence || got.Verdict != string(want.Verdict) {
		t.Fatalf("cache miss after refused swap: HTTP %+v, incumbent direct %+v", got, want)
	}
}

// TestHTTPSwapModelDir pins the swap containment knob: with ModelDir
// set, artifact paths outside it are refused before touching the
// filesystem, and paths inside it (including unclean ones) still swap.
func TestHTTPSwapModelDir(t *testing.T) {
	fixture(t)
	engine := serve.New(fixRF, serve.Options{})
	defer engine.Close()
	s := New(engine, Options{ModelDir: fixDir})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, outside := range []string{
		"/etc/passwd",
		filepath.Join(fixDir, "..", "somewhere-else.json"),
		fixDir + "-sibling/knn.json",
	} {
		code, body := postJSON(t, ts.Client(), ts.URL+"/v1/model/swap", SwapRequest{Path: outside})
		if code != http.StatusBadRequest || !strings.Contains(string(body), "model directory") {
			t.Fatalf("outside path %q answered %d: %s", outside, code, body)
		}
	}
	if st := engine.Stats(); st.Swaps != 0 {
		t.Fatalf("refused swaps reached the engine: %+v", st)
	}

	inside := filepath.Join(fixDir, ".", "knn.json")
	code, body := postJSON(t, ts.Client(), ts.URL+"/v1/model/swap", SwapRequest{Path: inside})
	if code != http.StatusOK {
		t.Fatalf("inside path refused: %d %s", code, body)
	}
}

// TestHTTPClassifyWhileSwap hammers classification from many goroutines
// while models hot-swap through the HTTP endpoint — the race-mode
// acceptance test. Every response must be a committed answer from
// exactly one model generation (rf or knn, both trained on the same
// classes), never an error, a blend, or a dropped request.
func TestHTTPClassifyWhileSwap(t *testing.T) {
	// MaxConcurrent is pinned above workers+swapper: on a small
	// GOMAXPROCS box the default limit can legitimately 429 the
	// swapper, which is backpressure working, not a swap failure.
	ts, engine, _ := newTestServer(t, serve.Options{BatchSize: 8}, Options{MaxConcurrent: 64})
	client := ts.Client()

	validLabels := map[string]bool{core.UnknownLabel: true}
	for _, c := range fixRF.Classes() {
		validLabels[c] = true
	}

	const workers, iters = 8, 30
	var wg sync.WaitGroup
	errs := make(chan error, workers*iters+64)
	stop := make(chan struct{})

	// Swapper: alternate rf and knn artifacts as fast as the server
	// accepts them.
	wg.Add(1)
	go func() {
		defer wg.Done()
		paths := []string{fixKNNPath, fixRFPath}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			code, body := postJSON(t, client, ts.URL+"/v1/model/swap", SwapRequest{Path: paths[i%2]})
			if code != http.StatusOK {
				errs <- fmt.Errorf("swap %d: status %d: %s", i, code, body)
				return
			}
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				bin := fixBins[(w*iters+i)%len(fixBins)]
				resp := classifyOver(t, client, ts.URL, bin)
				if !validLabels[resp.Label] {
					errs <- fmt.Errorf("worker %d: label %q from no model generation", w, resp.Label)
					return
				}
			}
		}(w)
	}

	// Give the classify workers room to overlap swaps, then end the
	// swap loop and wait everything out.
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := engine.Stats(); st.Swaps == 0 {
		t.Fatalf("no swaps installed during the run: %+v", st)
	}
}

// ----- protocol and backpressure tests ----------------------------------

func TestHTTPBadRequests(t *testing.T) {
	ts, _, _ := newTestServer(t, serve.Options{}, Options{})
	client := ts.Client()

	resp, err := client.Get(ts.URL + "/v1/classify")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET classify: %d", resp.StatusCode)
	}

	r2, err := client.Post(ts.URL+"/v1/classify", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: %d", r2.StatusCode)
	}

	// Neither path nor content.
	if code, _ := postJSON(t, client, ts.URL+"/v1/classify", ClassifyRequest{Exe: "x"}); code != http.StatusBadRequest {
		t.Fatalf("content-less request: %d", code)
	}
	// Both path and content.
	if code, _ := postJSON(t, client, ts.URL+"/v1/classify", ClassifyRequest{
		Path: "/a", BinaryB64: "aGk=",
	}); code != http.StatusBadRequest {
		t.Fatalf("double-content request: %d", code)
	}
	// Paths are rejected unless the server opts in.
	if code, body := postJSON(t, client, ts.URL+"/v1/classify", ClassifyRequest{Path: "/etc/hostname"}); code != http.StatusBadRequest || !strings.Contains(string(body), "disabled") {
		t.Fatalf("path request not refused: %d %s", code, body)
	}
	// Valid base64, but not an ELF: extraction fails with 422.
	if code, _ := postJSON(t, client, ts.URL+"/v1/classify", ClassifyRequest{
		BinaryB64: base64.StdEncoding.EncodeToString([]byte("plain text")),
	}); code != http.StatusUnprocessableEntity {
		t.Fatalf("non-ELF request: %d", code)
	}
}

func TestHTTPPathRequestsWhenAllowed(t *testing.T) {
	fixture(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "binary")
	if err := os.WriteFile(path, fixBins[0], 0o644); err != nil {
		t.Fatal(err)
	}
	ts, _, _ := newTestServer(t, serve.Options{}, Options{AllowPaths: true})
	code, body := postJSON(t, ts.Client(), ts.URL+"/v1/classify", ClassifyRequest{Path: path})
	if code != http.StatusOK {
		t.Fatalf("allowed path request: %d %s", code, body)
	}
	var resp ClassifyResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Label == "" {
		t.Fatalf("path classification empty: %+v", resp)
	}
}

func TestHTTPRequestTooLarge(t *testing.T) {
	ts, _, _ := newTestServer(t, serve.Options{}, Options{MaxBodyBytes: 1024})
	big := ClassifyRequest{BinaryB64: strings.Repeat("A", 4096)}
	code, body := postJSON(t, ts.Client(), ts.URL+"/v1/classify", big)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized request: %d %s", code, body)
	}
}

// blockingBackend parks every classification until released, so tests
// can hold a request in flight deterministically.
type blockingBackend struct {
	entered chan struct{}
	release chan struct{}
}

func (b *blockingBackend) PredictProbaBatch(samples []dataset.Sample) [][]float64 {
	b.entered <- struct{}{}
	<-b.release
	out := make([][]float64, len(samples))
	for i := range out {
		out[i] = []float64{1}
	}
	return out
}

func (b *blockingBackend) PredictFromProba(p []float64) core.Prediction {
	return core.Prediction{Label: "Blocked", Class: "Blocked", Confidence: p[0]}
}

// TestHTTPBackpressure saturates a MaxConcurrent=1 server with a
// blocked request and asserts the next one is answered 429 immediately
// rather than queued.
func TestHTTPBackpressure(t *testing.T) {
	fixture(t)
	bb := &blockingBackend{entered: make(chan struct{}, 4), release: make(chan struct{})}
	engine := serve.New(bb, serve.Options{BatchSize: 1, CacheEntries: -1})
	defer engine.Close()
	s := New(engine, Options{MaxConcurrent: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	firstDone := make(chan ClassifyResponse, 1)
	go func() {
		firstDone <- classifyOver(t, ts.Client(), ts.URL, fixBins[0])
	}()
	<-bb.entered // the first request is now inside the backend

	code, body := postJSON(t, ts.Client(), ts.URL+"/v1/classify", ClassifyRequest{
		BinaryB64: base64.StdEncoding.EncodeToString(fixBins[1]),
	})
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d: %s", code, body)
	}

	close(bb.release)
	if resp := <-firstDone; resp.Label != "Blocked" {
		t.Fatalf("blocked request lost: %+v", resp)
	}
	// Health stays exempt from the semaphore even under saturation.
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz under load: %d", resp.StatusCode)
	}
}

// TestHTTPGracefulShutdown drives Serve on a real listener: Shutdown
// must flip readiness, stop accepting connections, and still let the
// in-flight classification drain through its engine window.
func TestHTTPGracefulShutdown(t *testing.T) {
	fixture(t)
	bb := &blockingBackend{entered: make(chan struct{}, 1), release: make(chan struct{})}
	engine := serve.New(bb, serve.Options{BatchSize: 1, CacheEntries: -1})
	defer engine.Close()
	s := New(engine, Options{})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	client := &http.Client{}

	// Readiness before shutdown.
	resp, err := client.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before shutdown: %d", resp.StatusCode)
	}

	inFlight := make(chan ClassifyResponse, 1)
	go func() {
		inFlight <- classifyOver(t, client, base, fixBins[0])
	}()
	<-bb.entered

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// Shutdown must not return while the classification is still in its
	// engine window.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned before the in-flight request drained: %v", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(bb.release)
	if resp := <-inFlight; resp.Label != "Blocked" {
		t.Fatalf("in-flight request dropped during shutdown: %+v", resp)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
}

// TestHTTPShutdownBeforeServe pins the startup/shutdown race: a
// Shutdown that completes before Serve is ever called must still win —
// the later Serve returns ErrServerClosed immediately instead of
// running an unstoppable listener.
func TestHTTPShutdownBeforeServe(t *testing.T) {
	fixture(t)
	engine := serve.New(fixRF, serve.Options{})
	defer engine.Close()
	s := New(engine, Options{})
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown before Serve: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	select {
	case err := <-done:
		if err != http.ErrServerClosed {
			t.Fatalf("Serve after Shutdown returned %v, want ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve kept running after a completed Shutdown")
	}
}

// ----- metrics tests ----------------------------------------------------

// scrape fetches /metrics and returns the exposition body after
// validating every line is well-formed Prometheus text.
func scrape(t *testing.T, client *http.Client, base string) string {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			t.Fatalf("unparseable sample value in %q: %v", line, err)
		}
		series := line[:sp]
		if i := strings.IndexByte(series, '{'); i >= 0 && !strings.HasSuffix(series, "}") {
			t.Fatalf("unbalanced label braces in %q", line)
		}
	}
	return body
}

// metricValue extracts one series value from an exposition body.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, series+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, series+" "), 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %q absent from exposition:\n%s", series, body)
	return 0
}

// TestHTTPMetricsMoveUnderLoad is the observability acceptance gate: a
// scripted load of duplicate submissions and a hot-swap must move the
// cache-hit and swap counters between scrapes, and the exposition must
// stay parseable throughout.
func TestHTTPMetricsMoveUnderLoad(t *testing.T) {
	ts, _, _ := newTestServer(t, serve.Options{}, Options{})
	client := ts.Client()

	before := scrape(t, client, ts.URL)
	hits0 := metricValue(t, before, "fhc_engine_cache_hits_total")
	swaps0 := metricValue(t, before, "fhc_engine_swaps_total")

	// Scripted load: one cold submission, then the same binary four
	// more times — engine cache hits — then a model swap.
	for i := 0; i < 5; i++ {
		classifyOver(t, client, ts.URL, fixBins[0])
	}
	if code, body := postJSON(t, client, ts.URL+"/v1/model/swap", SwapRequest{Path: fixKNNPath}); code != http.StatusOK {
		t.Fatalf("swap: %d %s", code, body)
	}

	after := scrape(t, client, ts.URL)
	if hits := metricValue(t, after, "fhc_engine_cache_hits_total"); hits < hits0+4 {
		t.Fatalf("cache hits did not move: %v -> %v", hits0, hits)
	}
	if swaps := metricValue(t, after, "fhc_engine_swaps_total"); swaps != swaps0+1 {
		t.Fatalf("swap counter did not move: %v -> %v", swaps0, swaps)
	}
	if v := metricValue(t, after, `fhc_http_requests_total{route="/v1/classify",code="200"}`); v < 5 {
		t.Fatalf("request counter = %v, want >= 5", v)
	}
	if v := metricValue(t, after, `fhc_http_request_seconds_count{route="/v1/classify"}`); v < 5 {
		t.Fatalf("latency histogram count = %v, want >= 5", v)
	}
	if v := metricValue(t, after, "fhc_collector_seen_total"); v < 5 {
		t.Fatalf("collector counter = %v, want >= 5", v)
	}
	// 429/413 and other codes land in the same family with their code
	// label; probe one to keep the label path covered.
	if !strings.Contains(after, `fhc_http_requests_total{route="/metrics",code="200"}`) {
		t.Fatalf("metrics route not self-counted:\n%s", after)
	}
}

// ----- continuous learning over HTTP ------------------------------------

// getJSON fetches a URL and returns status and body.
func getJSON(t *testing.T, client *http.Client, url string) (int, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func TestHTTPRetrainDisabled(t *testing.T) {
	ts, _, _ := newTestServer(t, serve.Options{}, Options{})
	if code, body := postJSON(t, ts.Client(), ts.URL+"/v1/retrain", RetrainRequest{}); code != http.StatusNotFound {
		t.Fatalf("retrain without retrainer: %d %s", code, body)
	}
	if code, body := getJSON(t, ts.Client(), ts.URL+"/v1/retrain/status"); code != http.StatusNotFound {
		t.Fatalf("status without retrainer: %d %s", code, body)
	}
}

// retrainTestServer wires a server whose retrainer promotes instantly
// (prebuilt candidate) over a pre-filled store.
func retrainTestServer(t *testing.T, candidate *core.Classifier) (*httptest.Server, *serve.Engine, *retrain.Retrainer) {
	t.Helper()
	fixture(t)
	engine := serve.New(fixRF, serve.Options{})
	rt, err := retrain.New(engine, fixRF, retrain.Options{
		MinNewSamples: -1,
		MinConfidence: 0.5,
		TrainFunc: func([]dataset.Sample, core.Config) (*core.Classifier, error) {
			return candidate, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range fixSamples {
		rt.HarvestLabeled(&fixSamples[i], fixSamples[i].Class)
	}
	s := New(engine, Options{Retrainer: rt})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		rt.Close()
		engine.Close()
	})
	return ts, engine, rt
}

func TestHTTPRetrainWaitKickAndStatus(t *testing.T) {
	ts, engine, rt := retrainTestServer(t, fixRF)
	client := ts.Client()

	// Waited kick: the response carries the cycle result.
	code, body := postJSON(t, client, ts.URL+"/v1/retrain", RetrainRequest{Wait: true})
	if code != http.StatusOK {
		t.Fatalf("waited retrain: %d %s", code, body)
	}
	var resp RetrainResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("retrain response: %v\n%s", err, body)
	}
	if !resp.Triggered || resp.Result == nil || !resp.Result.Promoted {
		t.Fatalf("waited retrain should promote: %s", body)
	}
	if resp.Result.Trigger != "http" {
		t.Fatalf("trigger = %q, want http", resp.Result.Trigger)
	}
	if engine.Stats().Swaps != 1 {
		t.Fatalf("swaps = %d, want 1", engine.Stats().Swaps)
	}

	// Background kick (empty body): 202, then the cycle lands.
	resp2, err := client.Post(ts.URL+"/v1/retrain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("background kick: %d", resp2.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	for rt.Stats().Runs < 2 {
		if time.Now().After(deadline) {
			t.Fatal("background kick never ran")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Status reflects both cycles.
	code, body = getJSON(t, client, ts.URL+"/v1/retrain/status")
	if code != http.StatusOK {
		t.Fatalf("status: %d %s", code, body)
	}
	var st retrain.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("status response: %v\n%s", err, body)
	}
	if st.Runs != 2 || st.Promotions != 2 || st.Last == nil {
		t.Fatalf("status = %s", body)
	}
}

// TestHTTPClassifyHarvestsIntoStore proves the classify route feeds the
// continuous-learning store: confident predictions are admitted, and a
// duplicate submission does not occupy a second slot.
func TestHTTPClassifyHarvestsIntoStore(t *testing.T) {
	fixture(t)
	engine := serve.New(fixRF, serve.Options{})
	rt, err := retrain.New(engine, fixRF, retrain.Options{MinNewSamples: -1, MinConfidence: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	s := New(engine, Options{Retrainer: rt})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		rt.Close()
		engine.Close()
	})

	classifyOver(t, ts.Client(), ts.URL, fixBins[0])
	classifyOver(t, ts.Client(), ts.URL, fixBins[0]) // duplicate content
	classifyOver(t, ts.Client(), ts.URL, fixBins[1])

	st := rt.Stats()
	if st.StoreSize != 2 {
		t.Fatalf("store holds %d samples after 3 submissions of 2 binaries: %+v", st.StoreSize, st)
	}
	if st.Harvested != 2 {
		t.Fatalf("harvested = %d, want 2: %+v", st.Harvested, st)
	}
}

// TestHTTPManualSwapResetsIncumbent proves a manual model swap updates
// the promotion gate's baseline: after swapping in a deliberately
// degraded model, a cycle's incumbent score is the degraded one.
func TestHTTPManualSwapResetsIncumbent(t *testing.T) {
	fixture(t)
	// A degraded artifact: the rf fixture with an unreachable threshold,
	// so every prediction demotes to unknown.
	degraded, err := core.LoadFile(fixRFPath)
	if err != nil {
		t.Fatal(err)
	}
	degraded.SetThreshold(1.5)
	degradedPath := filepath.Join(t.TempDir(), "degraded.json")
	if err := core.SaveFile(degradedPath, degraded); err != nil {
		t.Fatal(err)
	}

	ts, _, _ := retrainTestServer(t, fixRF)
	client := ts.Client()
	if code, body := postJSON(t, client, ts.URL+"/v1/model/swap", SwapRequest{Path: degradedPath}); code != http.StatusOK {
		t.Fatalf("swap: %d %s", code, body)
	}

	code, body := postJSON(t, client, ts.URL+"/v1/retrain", RetrainRequest{Wait: true})
	if code != http.StatusOK {
		t.Fatalf("retrain: %d %s", code, body)
	}
	var resp RetrainResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	res := resp.Result
	if res == nil || !res.Promoted {
		t.Fatalf("candidate should beat the degraded incumbent: %s", body)
	}
	if res.IncumbentF1 >= res.CandidateF1 {
		t.Fatalf("incumbent not reset to the degraded model: incumbent %v vs candidate %v",
			res.IncumbentF1, res.CandidateF1)
	}
}
