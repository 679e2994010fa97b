package core

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ml"
	"repro/internal/rf"
	"repro/internal/synth"
)

// testData generates a small corpus and returns its samples plus a
// two-phase split. Cached across tests via package-level state would
// compromise isolation; generation takes well under a second.
func testData(t testing.TB) ([]dataset.Sample, ml.Split) {
	t.Helper()
	specs := []synth.ClassSpec{
		{Name: "Alpha", Samples: 12},
		{Name: "Beta", Samples: 12},
		{Name: "Gamma", Samples: 12},
		{Name: "Delta", Samples: 12},
		{Name: "Unknowable", Samples: 8, Unknown: true},
	}
	corpus, err := synth.Generate(specs, synth.Options{Seed: 404})
	if err != nil {
		t.Fatal(err)
	}
	samples, err := dataset.FromCorpus(corpus, 0)
	if err != nil {
		t.Fatal(err)
	}
	split, err := ml.SplitTwoPhase(samples, ml.SplitOptions{Mode: ml.PaperSplit, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return samples, split
}

// fixedConfig avoids the inner tuning split (too few classes in the test
// corpus for a meaningful pseudo-unknown holdout).
func fixedConfig() Config {
	return Config{
		Threshold: 0.30,
		Forest:    rf.Params{NumTrees: 60},
		Seed:      99,
	}
}

func trainTestClassifier(t *testing.T) (*Classifier, []dataset.Sample, []dataset.Sample) {
	t.Helper()
	samples, split := testData(t)
	train := gather(samples, split.TrainIdx)
	test := gather(samples, split.TestIdx)
	c, err := Train(train, fixedConfig())
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return c, train, test
}

func TestTrainAndClassifyKnownClasses(t *testing.T) {
	c, train, test := trainTestClassifier(t)
	if got := len(c.Classes()); got != 4 {
		t.Fatalf("classifier knows %d classes, want 4: %v", got, c.Classes())
	}
	_ = train
	correct, knownTotal := 0, 0
	for i := range test {
		if test[i].UnknownClass {
			continue
		}
		knownTotal++
		if pred := c.Classify(&test[i]); pred.Label == test[i].Class {
			correct++
		}
	}
	if knownTotal == 0 {
		t.Fatal("no known-class test samples")
	}
	acc := float64(correct) / float64(knownTotal)
	if acc < 0.8 {
		t.Fatalf("known-class accuracy %.2f (%d/%d), want >= 0.8", acc, correct, knownTotal)
	}
}

func TestUnknownClassDetection(t *testing.T) {
	c, _, test := trainTestClassifier(t)
	// Unknown-class samples share library content with known classes, so
	// at a low threshold they are (realistically) absorbed into them; a
	// stricter threshold must deflect them, as the paper's §5 discusses.
	c.SetThreshold(0.6)
	caught, total := 0, 0
	for i := range test {
		if !test[i].UnknownClass {
			continue
		}
		total++
		if pred := c.Classify(&test[i]); pred.Label == UnknownLabel {
			caught++
		}
	}
	if total == 0 {
		t.Fatal("no unknown-class test samples")
	}
	if caught == 0 {
		t.Fatalf("no unknown samples detected (0/%d)", total)
	}
}

func TestClassifyBatchMatchesSingle(t *testing.T) {
	c, _, test := trainTestClassifier(t)
	batch := c.ClassifyBatch(test)
	for i := range test {
		single := c.Classify(&test[i])
		if single.Label != batch[i].Label || math.Abs(single.Confidence-batch[i].Confidence) > 1e-12 {
			t.Fatalf("batch/single mismatch at %d: %+v vs %+v", i, single, batch[i])
		}
	}
}

func TestEvaluateReport(t *testing.T) {
	c, _, test := trainTestClassifier(t)
	report, err := c.Evaluate(test)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if report.Macro.F1 < 0.5 {
		t.Fatalf("macro f1 = %.3f, suspiciously low for the easy test corpus", report.Macro.F1)
	}
	if report.TotalSupport != len(test) {
		t.Fatalf("report support %d, want %d", report.TotalSupport, len(test))
	}
	if _, ok := report.PerClass[UnknownLabel]; !ok {
		t.Fatal("report missing the -1 unknown row")
	}
}

func TestFeatureImportanceWellFormed(t *testing.T) {
	// The Table 5 ordering (symbols >> strings > file) is a corpus-scale
	// property validated by the experiments package on the paper-size
	// manifest; this unit test only checks the aggregation contract.
	c, _, _ := trainTestClassifier(t)
	imp := c.FeatureImportance()
	if len(imp) != 3 {
		t.Fatalf("importance has %d entries, want 3: %v", len(imp), imp)
	}
	total := 0.0
	for name, v := range imp {
		if v < 0 || v > 1 {
			t.Fatalf("importance %s = %v out of range", name, v)
		}
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("importances sum to %v", total)
	}
	for _, kind := range []dataset.FeatureKind{dataset.FeatureFile, dataset.FeatureStrings, dataset.FeatureSymbols} {
		if _, ok := imp[kind.String()]; !ok {
			t.Fatalf("importance missing %s: %v", kind, imp)
		}
	}
}

func TestThresholdTradeoff(t *testing.T) {
	c, _, test := trainTestClassifier(t)
	countUnknown := func() int {
		n := 0
		for _, p := range c.ClassifyBatch(test) {
			if p.Label == UnknownLabel {
				n++
			}
		}
		return n
	}
	c.SetThreshold(0.05)
	low := countUnknown()
	c.SetThreshold(0.95)
	high := countUnknown()
	if high <= low {
		t.Fatalf("raising the threshold must catch more unknowns: low=%d high=%d", low, high)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	c, _, test := trainTestClassifier(t)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.Threshold() != c.Threshold() {
		t.Fatalf("threshold changed across save/load")
	}
	for i := range test {
		a, b := c.Classify(&test[i]), loaded.Classify(&test[i])
		if a.Label != b.Label || math.Abs(a.Confidence-b.Confidence) > 1e-9 {
			t.Fatalf("prediction changed across save/load at %d: %+v vs %+v", i, a, b)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not json"))); err == nil {
		t.Fatal("Load accepted garbage")
	}
	if _, err := Load(bytes.NewReader([]byte(`{"version":99}`))); err == nil {
		t.Fatal("Load accepted wrong version")
	}
}

func TestTrainValidation(t *testing.T) {
	samples, split := testData(t)
	train := gather(samples, split.TrainIdx)

	if _, err := Train(nil, fixedConfig()); err == nil {
		t.Error("empty training set accepted")
	}
	bad := append([]dataset.Sample(nil), train...)
	bad[0].Class = UnknownLabel
	if _, err := Train(bad, fixedConfig()); err == nil {
		t.Error("training sample labelled -1 accepted")
	}
	oneClass := gatherClass(train, train[0].Class)
	if _, err := Train(oneClass, fixedConfig()); err == nil {
		t.Error("single-class training set accepted")
	}
	cfg := fixedConfig()
	cfg.Distance = "bogus"
	if _, err := Train(train, cfg); err == nil {
		t.Error("invalid distance accepted")
	}
}

func gatherClass(samples []dataset.Sample, class string) []dataset.Sample {
	var out []dataset.Sample
	for i := range samples {
		if samples[i].Class == class {
			out = append(out, samples[i])
		}
	}
	return out
}

func TestDeterministicTraining(t *testing.T) {
	samples, split := testData(t)
	train := gather(samples, split.TrainIdx)
	test := gather(samples, split.TestIdx)
	a, err := Train(train, fixedConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(train, fixedConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range test {
		pa, pb := a.Classify(&test[i]), b.Classify(&test[i])
		if pa.Label != pb.Label || math.Abs(pa.Confidence-pb.Confidence) > 1e-12 {
			t.Fatalf("training is not deterministic at sample %d", i)
		}
	}
}

func TestTuningProducesCurve(t *testing.T) {
	// A corpus with enough classes for the inner pseudo-unknown split.
	var specs []synth.ClassSpec
	for _, name := range []string{"A", "B", "C", "D", "E", "F", "G", "H"} {
		specs = append(specs, synth.ClassSpec{Name: name, Samples: 8})
	}
	corpus, err := synth.Generate(specs, synth.Options{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	samples, err := dataset.FromCorpus(corpus, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Forest: rf.Params{NumTrees: 30},
		Grid: &Grid{
			Thresholds: []float64{0.0, 0.2, 0.4, 0.6},
		},
		Seed: 5,
	}
	c, err := Train(samples, cfg)
	if err != nil {
		t.Fatalf("Train with tuning: %v", err)
	}
	curve := c.TuningCurve()
	if len(curve) != 4 {
		t.Fatalf("tuning curve has %d points, want 4", len(curve))
	}
	found := false
	for _, p := range curve {
		if p.Threshold == c.Threshold() {
			found = true
		}
		if p.Scores.Micro < 0 || p.Scores.Micro > 1 {
			t.Fatalf("bad tuning scores: %+v", p)
		}
	}
	if !found {
		t.Fatalf("selected threshold %v not on the sweep grid", c.Threshold())
	}
}

func TestGridExpand(t *testing.T) {
	g := &Grid{
		NumTrees: []int{10, 20},
		MaxDepth: []int{0, 5},
	}
	pts := g.expand(rf.Params{MinSamplesSplit: 2, MinSamplesLeaf: 1, MaxFeatures: "sqrt"})
	if len(pts) != 4 {
		t.Fatalf("grid expanded to %d points, want 4", len(pts))
	}
	for _, p := range pts {
		if p.MaxFeatures != "sqrt" {
			t.Fatalf("untuned field not anchored: %+v", p)
		}
	}
}

func TestGroundTruth(t *testing.T) {
	c, _, test := trainTestClassifier(t)
	gt := c.GroundTruth(test)
	for i := range test {
		want := test[i].Class
		if test[i].UnknownClass {
			want = UnknownLabel
		}
		if gt[i] != want {
			t.Fatalf("ground truth for %s = %q, want %q", test[i].Path(), gt[i], want)
		}
	}
}

func TestFeaturizeShape(t *testing.T) {
	c, _, test := trainTestClassifier(t)
	x := c.Featurize(&test[0])
	want := 3 * len(c.Classes()) // three paper features
	if len(x) != want {
		t.Fatalf("feature vector length %d, want %d", len(x), want)
	}
	for _, v := range x {
		if v < 0 || v > 100 {
			t.Fatalf("similarity feature out of range: %v", v)
		}
	}
}

func TestFourFeatureConfiguration(t *testing.T) {
	samples, split := testData(t)
	train := gather(samples, split.TrainIdx)
	test := gather(samples, split.TestIdx)
	cfg := fixedConfig()
	cfg.Features = []dataset.FeatureKind{
		dataset.FeatureFile, dataset.FeatureStrings, dataset.FeatureSymbols, dataset.FeatureNeeded,
	}
	c, err := Train(train, cfg)
	if err != nil {
		t.Fatalf("Train with 4 features: %v", err)
	}
	if got, want := len(c.Featurize(&test[0])), 4*len(c.Classes()); got != want {
		t.Fatalf("feature vector length %d, want %d", got, want)
	}
	imp := c.FeatureImportance()
	if len(imp) != 4 {
		t.Fatalf("importance entries = %d, want 4: %v", len(imp), imp)
	}
	report, err := c.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	if report.Accuracy < 0.5 {
		t.Fatalf("four-feature accuracy %.3f too low", report.Accuracy)
	}
}

func TestDistanceVariantsTrain(t *testing.T) {
	samples, split := testData(t)
	train := gather(samples, split.TrainIdx)
	test := gather(samples, split.TestIdx)
	for _, d := range []DistanceName{DistanceDL, DistanceLevenshtein, DistanceSpamsum} {
		cfg := fixedConfig()
		cfg.Distance = d
		cfg.Forest.NumTrees = 30
		c, err := Train(train, cfg)
		if err != nil {
			t.Fatalf("distance %s: %v", d, err)
		}
		report, err := c.Evaluate(test)
		if err != nil {
			t.Fatal(err)
		}
		if report.Accuracy < 0.5 {
			t.Fatalf("distance %s accuracy %.3f too low", d, report.Accuracy)
		}
	}
}

func TestPredictionCarriesNearestClass(t *testing.T) {
	c, _, test := trainTestClassifier(t)
	c.SetThreshold(0.99) // force unknowns
	for _, p := range c.ClassifyBatch(test) {
		if p.Label == UnknownLabel && p.Class == "" {
			t.Fatal("unknown prediction lost its nearest class")
		}
	}
}
