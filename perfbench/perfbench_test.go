package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
)

// spec is the metric list BENCHMARK.json declares.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runSmall runs one tiny-scale benchmark and returns its result line
// and the full output.
func runSmall(t *testing.T, workload, trace string, wrap func(serve.Backend) serve.Backend) (result, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	args := []string{"--workload", workload, "--trace", trace, "--scale", "small",
		"--seconds", "1", "--setups", "1", "--warmup", "200ms", "--dir", t.TempDir()}
	if code := run(args, &out, &errOut, wrap); code != 0 {
		t.Fatalf("%s trace %s: exit %d: %s", workload, trace, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace %s: last line is not the result: %v\n%s", workload, trace, err, out.String())
	}
	return res, out.String()
}

// TestSmokeEveryWorkload runs every workload the benchmark knows,
// including any BENCHMARK.json leaves out, untraced and traced at tiny
// scale and checks that each declared metric is printed with its unit,
// and that every answer was right.
func TestSmokeEveryWorkload(t *testing.T) {
	s := loadSpec(t)
	for _, w := range s.Workloads {
		if !slices.Contains(workloads, w.Name) {
			t.Fatalf("BENCHMARK.json declares workload %q, which the benchmark does not run", w.Name)
		}
	}
	for _, name := range workloads {
		for _, trace := range []string{"0", "1"} {
			res, out := runSmall(t, name, trace, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := s.EndToEnd
			if trace == "1" {
				want = s.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, BENCHMARK.json declares %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", name, trace, m.Name, got, m.Unit)
				}
				if !strings.Contains(out, "metric "+m.Name+" ") {
					t.Errorf("%s trace %s: metric %s not printed by name", name, trace, m.Name)
				}
			}
			if trace == "1" && !strings.Contains(out, "where a ") {
				t.Errorf("%s: traced run printed no time table", name)
			}
		}
	}
}

// flipOne wraps a backend so every prediction of the first class it
// sees comes back with a wrong label.
type flipOne struct {
	serve.Backend
	once   sync.Once
	victim string
}

func (f *flipOne) PredictFromProba(p []float64) core.Prediction {
	pred := f.Backend.PredictFromProba(p)
	f.once.Do(func() { f.victim = pred.Class })
	if pred.Class == f.victim {
		pred.Label = "not-" + pred.Label
	}
	return pred
}

// TestInjectedWrongAnswerCounts shows the oracle check can fail: with a
// label flipped inside the workers, the online workloads report wrong
// answers as failures.
func TestInjectedWrongAnswerCounts(t *testing.T) {
	wrap := func(b serve.Backend) serve.Backend { return &flipOne{Backend: b} }
	for _, w := range []string{"cold-upload", "warm-probe"} {
		res, out := runSmall(t, w, "0", wrap)
		ratio := res.Metrics["correct_ratio"].Value
		if res.Correct || res.Failed == 0 || ratio >= 1 {
			t.Errorf("%s: flipped labels went unnoticed: correct=%v failed=%d correct_ratio=%v\n%s",
				w, res.Correct, res.Failed, ratio, out)
		}
		if !strings.Contains(out, "error_ratio ") || strings.Contains(out, "error_ratio 0 ") {
			t.Errorf("%s: error_ratio not above 0 in the report\n%s", w, out)
		}
	}
}
