package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/synth"
)

// withStdio captures os.Stdout and os.Stderr during fn.
func withStdio(t *testing.T, fn func() error) (stdout, stderr string, err error) {
	t.Helper()
	old := os.Stderr
	r, w, perr := os.Pipe()
	if perr != nil {
		t.Fatal(perr)
	}
	os.Stderr = w
	done := make(chan string)
	go func() {
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, rerr := r.Read(buf)
			b.Write(buf[:n])
			if rerr != nil {
				done <- b.String()
				return
			}
		}
	}()
	stdout, err = withStdout(t, fn)
	w.Close()
	os.Stderr = old
	return stdout, <-done, err
}

// treeBinaries lists every regular file of an install tree.
func treeBinaries(t *testing.T, dir string) []string {
	t.Helper()
	var bins []string
	if err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			bins = append(bins, path)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return bins
}

// writeLines writes lines as a JSON-lines file and returns its path.
func writeLines(t *testing.T, lines []string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "events.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCmdServeStreamOpenSet drives the open-set wiring of the stream
// surface alone (no -http): a calibrated model puts a verdict on every
// prediction line, the drift detector observes each served event
// exactly once, and a mid-stream reload to a second calibrated artifact
// is acknowledged and keeps serving verdicts.
func TestCmdServeStreamOpenSet(t *testing.T) {
	dir, _ := makeTree(t)
	models := t.TempDir()
	modelA := filepath.Join(models, "model-a.json")
	modelB := filepath.Join(models, "model-b.json")
	for i, m := range []string{modelA, modelB} {
		if _, err := withStdout(t, func() error {
			return cmdTrain([]string{"-corpus", dir, "-model", m, "-threshold", "0.3",
				"-trees", "40", "-calibrate", "0.25", "-seed", fmt.Sprint(11 + i)})
		}); err != nil {
			t.Fatalf("train %s: %v", m, err)
		}
	}

	bins := treeBinaries(t, dir)
	var lines []string
	event := func(i int, bin string) string {
		return fmt.Sprintf(`{"job_id":"%d","user":"alice","exe":"job","path":"%s"}`, i, bin)
	}
	for i, bin := range bins {
		lines = append(lines, event(i, bin))
	}
	reloadLine := len(lines)
	lines = append(lines, `{"reload":"`+modelB+`"}`)
	for i, bin := range bins {
		lines = append(lines, event(len(bins)+i, bin))
	}
	events := writeLines(t, lines)

	out, errOut, err := withStdio(t, func() error {
		return cmdServe([]string{"-model", modelA, "-input", events, "-stats", "-chunk", "5"})
	})
	if err != nil {
		t.Fatalf("serve: %v\n%s", err, errOut)
	}
	got := strings.Split(strings.TrimSpace(out), "\n")
	if len(got) != len(lines) {
		t.Fatalf("serve emitted %d results for %d lines:\n%s", len(got), len(lines), out)
	}
	for i, line := range got {
		if i == reloadLine {
			if !strings.Contains(line, `"reloaded":"`+modelB+`"`) ||
				!strings.Contains(line, `"model_kind":"rf"`) || strings.Contains(line, `"error"`) {
				t.Fatalf("reload not acknowledged: %s", line)
			}
			continue
		}
		if !strings.Contains(line, `"verdict":"`) || strings.Contains(line, `"error"`) {
			t.Fatalf("line %d carries no verdict: %s", i, line)
		}
	}
	served := 2 * len(bins)
	if want := fmt.Sprintf("drift: %d observations,", served); !strings.Contains(errOut, want) {
		t.Fatalf("stats do not count one drift observation per served event (want %q):\n%s", want, errOut)
	}
}

// settleGoroutines waits for the goroutine count to fall back to base,
// failing with every live stack when it does not.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("%d goroutines left behind (base %d):\n%s", runtime.NumGoroutine()-base, base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCmdServeNoGoroutineLeak proves cmdServe leaves nothing running
// once it returns: the request core is built even when it does not
// listen, so both a stream-only run and a stream+HTTP run (with a
// request served over a real socket) must settle back to the
// goroutine count they started from.
func TestCmdServeNoGoroutineLeak(t *testing.T) {
	dir, binary := makeTree(t)
	model := filepath.Join(t.TempDir(), "model.json")
	if _, err := withStdout(t, func() error {
		return cmdTrain([]string{"-corpus", dir, "-model", model, "-threshold", "0.3",
			"-trees", "40", "-calibrate", "0.25"})
	}); err != nil {
		t.Fatalf("train: %v", err)
	}
	events := writeLines(t, []string{
		`{"job_id":"1","exe":"a","path":"` + binary + `"}`,
		`{"reload":"` + model + `"}`,
		`{"job_id":"2","exe":"a","path":"` + binary + `"}`,
	})
	retrain := []string{"-retrain", "-retrain-every", "-1"}

	t.Run("stream", func(t *testing.T) {
		base := runtime.NumGoroutine()
		if _, _, err := withStdio(t, func() error {
			return cmdServe(append([]string{"-model", model, "-input", events}, retrain...))
		}); err != nil {
			t.Fatalf("serve: %v", err)
		}
		settleGoroutines(t, base)
	})

	t.Run("stream+http", func(t *testing.T) {
		base := runtime.NumGoroutine()
		client := &http.Client{Transport: &http.Transport{}}
		var healthz int
		serveHTTPBound = func(addr string, _ func()) {
			resp, err := client.Get("http://" + addr + "/healthz")
			if err == nil {
				healthz = resp.StatusCode
				resp.Body.Close()
			}
		}
		defer func() { serveHTTPBound = nil }()
		if _, _, err := withStdio(t, func() error {
			return cmdServe(append([]string{"-model", model, "-input", events,
				"-http", "127.0.0.1:0"}, retrain...))
		}); err != nil {
			t.Fatalf("serve: %v", err)
		}
		if healthz != http.StatusOK {
			t.Fatalf("healthz over the live listener: %d", healthz)
		}
		client.CloseIdleConnections()
		settleGoroutines(t, base)
	})
}

// TestCmdServeReloadCorruptArtifact feeds the stream a reload naming an
// rf artifact with one child index far out of range. The reload path
// loads through the same validating decoder as an HTTP swap, so the
// stream must answer an error line naming the node and keep serving the
// incumbent.
func TestCmdServeReloadCorruptArtifact(t *testing.T) {
	dir, binary := makeTree(t)
	model := filepath.Join(t.TempDir(), "model.json")
	if _, err := withStdout(t, func() error {
		return cmdTrain([]string{"-corpus", dir, "-model", model, "-threshold", "0.3", "-trees", "40"})
	}); err != nil {
		t.Fatalf("train: %v", err)
	}
	raw, err := os.ReadFile(model)
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
	corrupt := filepath.Join(t.TempDir(), "corrupt.json")
	if raw, err = json.Marshal(art); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(corrupt, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	events := writeLines(t, []string{
		`{"reload":"` + corrupt + `"}`,
		`{"job_id":"1","exe":"a","path":"` + binary + `"}`,
	})
	out, err := withStdout(t, func() error {
		return cmdServe([]string{"-model", model, "-input", events})
	})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	got := strings.Split(strings.TrimSpace(out), "\n")
	if len(got) != 2 {
		t.Fatalf("serve emitted %d results for 2 lines:\n%s", len(got), out)
	}
	if !strings.Contains(got[0], `"error"`) || !strings.Contains(got[0], "tree 0 node 0") {
		t.Fatalf("corrupt reload not refused: %s", got[0])
	}
	if !strings.Contains(got[1], `"label":"AppOne"`) {
		t.Fatalf("incumbent stopped serving after the refused reload: %s", got[1])
	}
}

// TestCmdServePolicyFindings pins the findings array of the stream's
// output lines: a policy and an event sequence that produce every
// finding kind, asserting each finding's kind, message and order.
// Batching changes scheduling, not findings: one event per window and
// the whole stream in one window must print the same bytes, history
// order effects (new-user behaviour) included.
func TestCmdServePolicyFindings(t *testing.T) {
	dir, _ := makeTree(t)
	model := filepath.Join(t.TempDir(), "model.json")
	if _, err := withStdout(t, func() error {
		return cmdTrain([]string{"-corpus", dir, "-model", model, "-threshold", "0.5", "-trees", "40"})
	}); err != nil {
		t.Fatalf("train: %v", err)
	}
	// One binary per trained class, plus one of a class the model never
	// saw, which the threshold turns into the unknown label.
	bins := map[string]string{}
	for _, bin := range treeBinaries(t, dir) {
		class := strings.Split(strings.TrimPrefix(bin, dir+string(filepath.Separator)), string(filepath.Separator))[0]
		if bins[class] == "" {
			bins[class] = bin
		}
	}
	foreign, err := synth.Generate([]synth.ClassSpec{{Name: "Foreign", Samples: 1}}, synth.Options{Seed: 1234})
	if err != nil {
		t.Fatal(err)
	}
	bins["Foreign"] = filepath.Join(t.TempDir(), "foreign")
	if err := os.WriteFile(bins["Foreign"], foreign.Samples[0].Binary, 0o755); err != nil {
		t.Fatal(err)
	}

	policy := filepath.Join(t.TempDir(), "policy.json")
	if err := os.WriteFile(policy, []byte(`{"allowed_by_account":{"bio-1":["AppOne"]},"blocklist":["AppThree"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	event := func(job, user, account, class string) string {
		return fmt.Sprintf(`{"job_id":"%s","user":"%s","account":"%s","exe":"x","path":"%s"}`,
			job, user, account, bins[class])
	}
	events := writeLines(t, []string{
		event("1", "alice", "bio-1", "AppOne"),   // clean
		event("2", "alice", "bio-1", "AppTwo"),   // purpose + new behaviour
		event("3", "bob", "free", "AppThree"),    // blocked
		event("4", "carol", "free", "Foreign"),   // unknown
		event("5", "bob", "bio-1", "AppThree"),   // blocked + purpose
		event("6", "alice", "bio-1", "AppThree"), // blocked + purpose + new behaviour
	})

	out, err := withStdout(t, func() error {
		return cmdServe([]string{"-model", model, "-policy", policy, "-input", events, "-chunk", "1"})
	})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	burst, err := withStdout(t, func() error {
		return cmdServe([]string{"-model", model, "-policy", policy, "-input", events})
	})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	if burst != out {
		t.Fatalf("one window per event printed\n%s\nthe whole stream in one window printed\n%s", out, burst)
	}
	type finding struct{ Kind, Message string }
	type result struct {
		JobID      string    `json:"job_id"`
		Label      string    `json:"label"`
		Class      string    `json:"class"`
		Confidence float64   `json:"confidence"`
		Error      string    `json:"error"`
		Findings   []finding `json:"findings"`
	}
	var got []result
	dec := json.NewDecoder(strings.NewReader(out))
	for dec.More() {
		var r result
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("decode %q: %v", out, err)
		}
		got = append(got, r)
	}
	if len(got) != 6 {
		t.Fatalf("serve emitted %d results for 6 events:\n%s", len(got), out)
	}
	if got[3].Label != "-1" || got[3].Class == "" {
		t.Fatalf("foreign binary not labelled unknown: %+v", got[3])
	}
	want := [][]finding{
		nil,
		{
			{"purpose-deviation", "job 2: account bio-1 is not allocated for AppTwo"},
			{"new-user-behaviour", "job 2: first time user alice runs AppTwo"},
		},
		{
			{"blocked-application", "job 3 (bob): AppThree is blocklisted on this system"},
		},
		{
			{"unknown-application", fmt.Sprintf(
				"job 4 (carol): executable matches no known application (closest %s at %.2f)",
				got[3].Class, got[3].Confidence)},
		},
		{
			{"blocked-application", "job 5 (bob): AppThree is blocklisted on this system"},
			{"purpose-deviation", "job 5: account bio-1 is not allocated for AppThree"},
		},
		{
			{"blocked-application", "job 6 (alice): AppThree is blocklisted on this system"},
			{"purpose-deviation", "job 6: account bio-1 is not allocated for AppThree"},
			{"new-user-behaviour", "job 6: first time user alice runs AppThree"},
		},
	}
	for i, r := range got {
		if r.Error != "" || r.JobID != fmt.Sprint(i+1) {
			t.Fatalf("result %d: %+v", i, r)
		}
		if len(r.Findings) != len(want[i]) {
			t.Fatalf("job %s findings %+v, want %+v", r.JobID, r.Findings, want[i])
		}
		for j := range want[i] {
			if r.Findings[j] != want[i][j] {
				t.Fatalf("job %s finding %d = %+v, want %+v", r.JobID, j, r.Findings[j], want[i][j])
			}
		}
	}
}
