package main

import (
	"encoding/hex"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ml"
	"repro/internal/openset"
	"repro/internal/rf"
	"repro/internal/synth"
)

// scaleSpec is a corpus size: the class manifest and the forest size
// trained on it, mirroring internal/experiments.
type scaleSpec struct {
	manifest []synth.ClassSpec
	trees    int
}

// scales are the corpora the benchmark runs on. "medium" is the
// experiments package's medium scale (the published per-sample shape at
// about a third of the paper's sample count); "small" exists for the
// benchmark's own smoke tests.
func lookupScale(name string) (scaleSpec, error) {
	switch name {
	case "medium":
		specs := synth.SmallManifest(35, 9, 90)
		have := map[string]bool{}
		for i := range specs {
			have[specs[i].Name] = true
		}
		for _, spec := range synth.PaperManifest() {
			if (spec.Name == "Velvet" || spec.Name == "OpenMalaria") && !have[spec.Name] {
				specs = append(specs, spec)
			}
		}
		return scaleSpec{manifest: specs, trees: 120}, nil
	case "small":
		return scaleSpec{manifest: synth.SmallManifest(10, 3, 16), trees: 60}, nil
	default:
		return scaleSpec{}, fmt.Errorf("unknown scale %q (want medium or small)", name)
	}
}

// heldOut is one binary of the held-out set: the known-class test
// samples plus every sample of the unknown classes.
type heldOut struct {
	bin    []byte
	sample dataset.Sample
	// probe is the hash-first request body naming this binary.
	probe []byte
	// truth is the paper's evaluation label: the class, or "-1" for a
	// class the model never saw.
	truth string
}

// env is one complete set-up: the held-out set, the calibrated artifact
// on disk, a reference classifier loaded from it, the oracle answers,
// and the running fleet serving the same artifact.
type env struct {
	artifact string
	ref      *core.Classifier
	held     []heldOut
	// oracle[i] is ref.Classify on held[i]'s bytes.
	oracle []core.Prediction
	fleet  *fleet
	// corpusSamples and trainSamples size the corpus for the report.
	corpusSamples, trainSamples int
}

// setup builds an env: synthesise the corpus, extract features, make
// the paper's two-phase split, train, calibrate on a holdout carved
// from the training split, save the artifact, load it back and bring
// the fleet up on it. The returned duration covers exactly that; the
// oracle is computed afterwards and timed separately.
func setup(cfg *config, tr *tracer) (*env, time.Duration, error) {
	sc, err := lookupScale(cfg.scale)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	corpus, err := synth.Generate(sc.manifest, synth.Options{Seed: corpusSeed})
	if err != nil {
		return nil, 0, fmt.Errorf("synth: %w", err)
	}
	samples, err := dataset.FromCorpus(corpus, 0)
	if err != nil {
		return nil, 0, fmt.Errorf("extract: %w", err)
	}
	split, err := ml.SplitTwoPhase(samples, ml.SplitOptions{
		Mode:          ml.PaperSplit,
		TrainFraction: 0.6,
		Seed:          corpusSeed,
	})
	if err != nil {
		return nil, 0, fmt.Errorf("split: %w", err)
	}
	train := make([]dataset.Sample, len(split.TrainIdx))
	for i, j := range split.TrainIdx {
		train[i] = samples[j]
	}
	fit, calHold := calibrationSplit(train, 5)
	thresholds := make([]float64, 10)
	for i := range thresholds {
		thresholds[i] = float64(i) / 10
	}
	clf, err := core.Train(fit, core.Config{
		Forest: rf.Params{NumTrees: sc.trees},
		Grid:   &core.Grid{Thresholds: thresholds},
		Seed:   corpusSeed,
	})
	if err != nil {
		return nil, 0, fmt.Errorf("train: %w", err)
	}
	if _, err := clf.Calibrate(calHold, openset.CalibrateOptions{}); err != nil {
		return nil, 0, fmt.Errorf("calibrate: %w", err)
	}
	artifact := filepath.Join(cfg.dir, "model.json")
	if err := core.SaveFile(artifact, clf); err != nil {
		return nil, 0, err
	}
	ref, err := core.LoadFile(artifact)
	if err != nil {
		return nil, 0, err
	}

	e := &env{artifact: artifact, ref: ref, corpusSamples: len(samples), trainSamples: len(fit)}
	truth := ref.GroundTruth(gatherSamples(samples, split.TestIdx))
	e.held = make([]heldOut, len(split.TestIdx))
	for i, j := range split.TestIdx {
		s := samples[j]
		e.held[i] = heldOut{
			bin:    corpus.Samples[j].Binary,
			sample: s,
			probe:  []byte(`{"sha256":"` + hex.EncodeToString(s.SHA256[:]) + `"}`),
			truth:  truth[i],
		}
	}
	e.fleet, err = startFleet(artifact, fleetWorkers, tr, cfg.wrapBackend)
	if err != nil {
		return nil, 0, err
	}
	return e, time.Since(start), nil
}

// computeOracle classifies every held-out binary one at a time with the
// reference classifier — the answers every workload is checked against.
func (e *env) computeOracle() {
	e.oracle = make([]core.Prediction, len(e.held))
	var wg sync.WaitGroup
	procs := runtime.GOMAXPROCS(0)
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(e.held); i += procs {
				e.oracle[i] = e.ref.Classify(&e.held[i].sample)
			}
		}(w)
	}
	wg.Wait()
}

// macroF1 is the paper's Table 4 headline for the served model: the
// oracle's labels on the held-out set against the evaluation labels.
// Every workload checks what it served against the oracle, so a wrong
// answer shows in correct_ratio and a less accurate model shows here.
func (e *env) macroF1() (float64, error) {
	yTrue := make([]string, len(e.held))
	yPred := make([]string, len(e.held))
	for i := range e.held {
		yTrue[i] = e.held[i].truth
		yPred[i] = e.oracle[i].Label
	}
	rep, err := ml.ClassificationReport(yTrue, yPred)
	if err != nil {
		return 0, err
	}
	return rep.Macro.F1, nil
}

// heldBytes is the size of the held-out binaries the client keeps to
// upload: benchmark input, not program state.
func (e *env) heldBytes() uint64 {
	n := 0
	for i := range e.held {
		n += len(e.held[i].bin)
	}
	return uint64(n)
}

// close stops the fleet.
func (e *env) close() {
	if e.fleet != nil {
		e.fleet.close()
	}
}

// calibrationSplit freezes every k-th member of each class (in corpus
// order) as the open-set calibration holdout, as `fhc train -calibrate`
// does, so thresholds are tuned on samples the model never trained on.
func calibrationSplit(samples []dataset.Sample, k int) (fit, holdout []dataset.Sample) {
	seen := map[string]int{}
	for i := range samples {
		n := seen[samples[i].Class]
		seen[samples[i].Class] = n + 1
		if n%k == k-1 {
			holdout = append(holdout, samples[i])
		} else {
			fit = append(fit, samples[i])
		}
	}
	return fit, holdout
}

func gatherSamples(samples []dataset.Sample, idx []int) []dataset.Sample {
	out := make([]dataset.Sample, len(idx))
	for i, j := range idx {
		out[i] = samples[j]
	}
	return out
}
