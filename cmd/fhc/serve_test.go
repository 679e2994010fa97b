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
