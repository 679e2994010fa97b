package core

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/model"
	"repro/internal/openset"
	"repro/internal/rf"
)

// artifact trains a small classifier of the given model kind on the
// test corpus's training split and returns its saved artifact; with
// calibrate set, the open-set calibration tuned on the held-out split
// rides along.
func artifact(t testing.TB, kind string, calibrate bool) []byte {
	t.Helper()
	samples, split := testData(t)
	cfg := fixedConfig()
	cfg.Model = kind
	cfg.Forest = rf.Params{NumTrees: 10}
	cfg.KNN = knn.Params{K: 3}
	clf, err := Train(gather(samples, split.TrainIdx), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if calibrate {
		if _, err := clf.Calibrate(gather(samples, split.TestIdx), openset.CalibrateOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mutateArtifact decodes an artifact generically (numbers kept
// verbatim), applies edit and re-encodes it.
func mutateArtifact(t *testing.T, raw []byte, edit func(m map[string]any)) []byte {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	edit(m)
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// field walks a decoded artifact along path.
func field(m map[string]any, path ...string) any {
	var v any = m
	for _, k := range path {
		v = v.(map[string]any)[k]
	}
	return v
}

// TestLoadRejectsInconsistentArtifacts pins the structural checks Load
// enforces on an artifact before it can serve: each row breaks one
// invariant of a real trained artifact and must be refused with an
// error naming it.
func TestLoadRejectsInconsistentArtifacts(t *testing.T) {
	rfArt := artifact(t, model.KindRF, true)
	knnArt := artifact(t, model.KindKNN, false)
	svmArt := artifact(t, model.KindSVM, false)
	for _, tc := range []struct {
		name string
		art  []byte
		edit func(m map[string]any)
		want string
	}{
		{"knn row width", knnArt, func(m map[string]any) {
			x := field(m, "model", "x").([]any)
			x[1] = x[1].([]any)[1:]
		}, "row 1 has"},
		{"knn label out of range", knnArt, func(m map[string]any) {
			y := field(m, "model", "y").([]any)
			y[0] = field(m, "model", "num_classes")
		}, "out of range"},
		{"svm weight-vector count", svmArt, func(m map[string]any) {
			mdl := field(m, "model").(map[string]any)
			w := mdl["weights"].([]any)
			mdl["weights"] = w[:len(w)-1]
		}, "weight vectors"},
		{"feature count", rfArt, func(m map[string]any) {
			m["features"] = m["features"].([]any)[:2]
			m["profiles"] = m["profiles"].([]any)[:2]
		}, "model inconsistency"},
		{"calibration names a foreign class", rfArt, func(m map[string]any) {
			field(m, "calibration", "calibration", "classes").([]any)[0] = "Nope"
		}, `calibration class 0 is "Nope"`},
		{"unknown distance", rfArt, func(m map[string]any) {
			m["distance"] = "bogus"
		}, "unknown distance"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Load(bytes.NewReader(tc.art)); err != nil {
				t.Fatalf("unmutated artifact: %v", err)
			}
			_, err := Load(bytes.NewReader(mutateArtifact(t, tc.art, tc.edit)))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Load error = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestLoadLegacyDPDistances covers artifacts written when the
// dynamic-programming oracles were selectable by name: they load onto
// the bit-parallel distance they are proven identical to, predict bit
// for bit like the fast-named artifact, and re-save under the fast
// name. Train no longer accepts the oracle names.
func TestLoadLegacyDPDistances(t *testing.T) {
	samples, split := testData(t)
	test := gather(samples, split.TestIdx)
	for legacy, fast := range legacyDistances {
		cfg := fixedConfig()
		cfg.Distance = fast
		cfg.Forest.NumTrees = 10
		clf, err := Train(gather(samples, split.TrainIdx), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := clf.Save(&buf); err != nil {
			t.Fatal(err)
		}
		fastField := []byte(`"distance":"` + string(fast) + `"`)
		raw := bytes.Replace(buf.Bytes(), fastField, []byte(`"distance":"`+string(legacy)+`"`), 1)
		if bytes.Equal(raw, buf.Bytes()) {
			t.Fatalf("artifact has no %s field", fastField)
		}
		loaded, err := Load(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", legacy, err)
		}
		for i := range test {
			if got, want := loaded.Classify(&test[i]), clf.Classify(&test[i]); got != want {
				t.Fatalf("%s sample %d: %+v, fast-named artifact %+v", legacy, i, got, want)
			}
		}
		var resaved bytes.Buffer
		if err := loaded.Save(&resaved); err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(resaved.Bytes(), fastField) {
			t.Fatalf("%s: re-saved artifact does not name %s", legacy, fast)
		}

		cfg.Distance = legacy
		if _, err := Train(gather(samples, split.TrainIdx), cfg); err == nil || !strings.Contains(err.Error(), "unknown distance") {
			t.Fatalf("Train with %s: err = %v, want unknown distance", legacy, err)
		}
	}
}

// FuzzLoad feeds Load arbitrary artifacts. Property: Load either errors
// or returns a classifier that classifies a fixed probe without
// panicking and within a deadline (a cyclic tree would spin forever).
func FuzzLoad(f *testing.F) {
	v1, err := os.ReadFile("testdata/model_v1.json")
	if err != nil {
		f.Fatal(err)
	}
	sf, err := os.Open("testdata/model_v1_samples.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	probes, err := dataset.LoadSamples(sf)
	sf.Close()
	if err != nil {
		f.Fatal(err)
	}
	probe := probes[0]
	v2 := artifact(f, model.KindRF, true)
	f.Add(v1)
	f.Add(v2)
	f.Add(bytes.Replace(v2, []byte(`"distance":"damerau-levenshtein"`), []byte(`"distance":"damerau-levenshtein-dp"`), 1))
	f.Fuzz(func(t *testing.T, raw []byte) {
		clf, err := Load(bytes.NewReader(raw))
		if err != nil {
			return
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			clf.Classify(&probe)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("Classify did not return within 10s on a loaded artifact")
		}
	})
}
