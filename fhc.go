// Package fhc is the public API of the Fuzzy Hash Classifier, a
// reproduction of "Using Malware Detection Techniques for HPC Application
// Classification" (Jakobsche & Ciorba, SC 2024).
//
// The classifier labels HPC application executables by application class
// using similarity-preserving fuzzy hashes (package repro/ssdeep) of three
// views of each binary — the raw file bytes, its strings(1) output and its
// nm(1) global symbols — fed into a Random Forest with balanced class
// weights. Samples whose prediction confidence falls below a tuned
// threshold are labelled "-1" (unknown), the signal for software deviating
// from allocation purpose.
//
// # Quick start
//
//	samples, _ := fhc.ScanTree("/apps", 0)            // label by install path
//	clf, _ := fhc.Train(samples, fhc.Config{Seed: 1}) // tune + fit
//	pred := clf.Classify(&incoming)                   // label a new binary
//	if pred.Label == fhc.UnknownLabel { ... }         // flag for review
//
// The runnable programs under examples/ walk through the full workflow,
// and cmd/fhc exposes it as a command-line tool. Everything is pure Go on
// the standard library; no cgo, no network, no external binaries.
package fhc

import (
	"fmt"
	"io"
	"os"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/httpserve"
	"repro/internal/knn"
	"repro/internal/metrics"
	"repro/internal/ml"
	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/openset"
	"repro/internal/retrain"
	"repro/internal/rf"
	"repro/internal/serve"
	"repro/internal/svm"
	"repro/internal/synth"
)

// Re-exported core types. The type aliases keep one canonical definition
// while giving users a single import.
type (
	// Sample is a labelled executable reduced to its fuzzy-hash features.
	Sample = dataset.Sample
	// FeatureKind enumerates the fuzzy-hash features of a sample.
	FeatureKind = dataset.FeatureKind
	// Classifier is a trained Fuzzy Hash Classifier.
	Classifier = core.Classifier
	// Config configures training.
	Config = core.Config
	// Grid is the hyper-parameter search space for training-time tuning.
	Grid = core.Grid
	// Prediction is the classifier's answer for one sample.
	Prediction = core.Prediction
	// ThresholdScore is one point of the confidence-threshold sweep.
	ThresholdScore = core.ThresholdScore
	// Model is the pluggable classification-model surface; Config.Model
	// selects the registered kind ("rf", "knn", "svm") trained on the
	// fuzzy-hash similarity features.
	Model = model.Model
	// ForestParams are the Random Forest hyper-parameters.
	ForestParams = rf.Params
	// KNNParams are the K-nearest-neighbour hyper-parameters.
	KNNParams = knn.Params
	// SVMParams are the linear SVM hyper-parameters.
	SVMParams = svm.Params
	// Report is a multi-class classification report.
	Report = ml.Report
	// ClassMetrics holds per-class precision/recall/f1/support.
	ClassMetrics = ml.ClassMetrics
	// Split is a two-phase train/test split.
	Split = ml.Split
	// SplitOptions configures SplitTwoPhase.
	SplitOptions = ml.SplitOptions
	// ClassSpec declares one synthetic application class.
	ClassSpec = synth.ClassSpec
	// CorpusOptions configures synthetic corpus generation.
	CorpusOptions = synth.Options
	// Corpus is a generated set of synthetic application executables.
	Corpus = synth.Corpus
	// MutationRates parameterises synthetic version evolution.
	MutationRates = synth.MutationRates
	// Monitor applies allocation policy to labelled job submissions —
	// the decision-support layer of the paper's Figure 1 workflow.
	Monitor = monitor.Monitor
	// MonitorPolicy declares allocation purposes and blocklisted classes.
	MonitorPolicy = monitor.Policy
	// JobEvent is one observed job submission.
	JobEvent = monitor.Event
	// Finding is one policy observation about a job.
	Finding = monitor.Finding
	// FindingKind classifies a policy finding.
	FindingKind = monitor.FindingKind
	// Collector deduplicates and extracts job executables (the paper's
	// Slurm-prolog collection mechanism).
	Collector = collector.Collector
	// CollectorOptions configures a Collector.
	CollectorOptions = collector.Options
	// CollectorStats counts collector activity.
	CollectorStats = collector.Stats
	// Engine is the serving front for a classifier: an exact-hash
	// prediction cache with in-flight coalescing over a micro-batching
	// dispatcher. Predictions are bit-identical to Classifier.Classify.
	Engine = serve.Engine
	// EngineOptions configures an Engine's batching and caching.
	EngineOptions = serve.Options
	// EngineStats is a snapshot of engine activity.
	EngineStats = serve.Stats
	// HTTPServer is the network front end over an Engine: the versioned
	// classify/swap JSON API plus health and Prometheus metrics
	// endpoints (see internal/httpserve).
	HTTPServer = httpserve.Server
	// HTTPServerOptions configures an HTTPServer: body limits,
	// concurrency backpressure, path-request policy, model loading.
	HTTPServerOptions = httpserve.Options
	// HTTPClassifyRequest is the wire request of POST /v1/classify and
	// each element of a batch request.
	HTTPClassifyRequest = httpserve.ClassifyRequest
	// HTTPClassifyResponse is one prediction on the wire.
	HTTPClassifyResponse = httpserve.ClassifyResponse
	// HTTPBatchRequest is the wire request of POST /v1/classify/batch.
	HTTPBatchRequest = httpserve.BatchRequest
	// HTTPBatchResponse holds batch results in request order.
	HTTPBatchResponse = httpserve.BatchResponse
	// HTTPSwapRequest names a model artifact for POST /v1/model/swap.
	HTTPSwapRequest = httpserve.SwapRequest
	// HTTPSwapResponse acknowledges an installed hot-swap.
	HTTPSwapResponse = httpserve.SwapResponse
	// MetricsRegistry is the dependency-free Prometheus-text metrics
	// registry the HTTP layer exposes on GET /metrics; pass one via
	// HTTPServerOptions.Registry to add application series.
	MetricsRegistry = metrics.Registry
	// Retrainer is the continuous-learning subsystem: it harvests
	// labelled windows into a bounded class-balanced training store,
	// retrains in the background on a trigger policy, and promotes
	// candidates that pass the holdout gate through Engine.Swap with
	// zero downtime (see internal/retrain and OPERATIONS.md).
	Retrainer = retrain.Retrainer
	// RetrainOptions configures a Retrainer: store bounds and
	// persistence, trigger policy, harvest confidence gate, holdout
	// fraction, promotion margin, artifact retention and the candidate
	// training configuration.
	RetrainOptions = retrain.Options
	// RetrainStoreOptions bounds and persists the labelled training
	// store (RetrainOptions.Store).
	RetrainStoreOptions = retrain.StoreOptions
	// RetrainStats is a snapshot of retrainer activity: run/promotion/
	// rejection counters, harvest totals, store population and the last
	// cycle's result.
	RetrainStats = retrain.Stats
	// RetrainResult describes one retraining cycle: the trigger, the
	// frozen split, both holdout macro-F1 scores, per-class deltas and
	// the promotion verdict.
	RetrainResult = retrain.Result
	// HTTPRetrainRequest kicks a continuous-learning cycle over POST
	// /v1/retrain; set Wait to block for the cycle's result.
	HTTPRetrainRequest = httpserve.RetrainRequest
	// HTTPRetrainResponse acknowledges a triggered cycle and, for
	// waited requests, carries its result.
	HTTPRetrainResponse = httpserve.RetrainResponse
	// Verdict is the calibrated open-set decision attached to a
	// Prediction: "class", "unknown" or "ambiguous" (see
	// internal/openset).
	Verdict = openset.Verdict
	// Calibration is the versioned open-set abstention policy tuned by
	// Classifier.Calibrate on a frozen holdout and persisted inside the
	// model artifact, so hot swaps install model and thresholds as one
	// atomic unit.
	Calibration = openset.Calibration
	// CalibrateOptions tunes Classifier.Calibrate's abstention budget.
	CalibrateOptions = openset.CalibrateOptions
	// DriftDetector watches served verdicts for population drift
	// against a calibration baseline and latches an alarm — wire one
	// into HTTPServerOptions.Drift and RetrainOptions.Drift so drifting
	// traffic kicks a retraining cycle.
	DriftDetector = openset.Detector
	// DriftOptions configures a DriftDetector.
	DriftOptions = openset.DriftOptions
	// DriftState is a snapshot of a DriftDetector.
	DriftState = openset.DriftState
	// DriftBaseline is the expected verdict population a calibration
	// records for its drift detector.
	DriftBaseline = openset.Baseline
)

// UnknownLabel is the class label of samples that resemble no known
// application class (the paper's "-1").
const UnknownLabel = core.UnknownLabel

// Calibrated open-set verdicts, as carried by Prediction.Verdict.
const (
	// VerdictClass: the prediction names a class with calibrated
	// confidence, margin and distance evidence.
	VerdictClass = openset.VerdictClass
	// VerdictUnknown: the sample resembles no known class well enough;
	// the label is demoted to UnknownLabel.
	VerdictUnknown = openset.VerdictUnknown
	// VerdictAmbiguous: two classes compete for the label; the raw
	// label stands but self-training must not harvest it.
	VerdictAmbiguous = openset.VerdictAmbiguous
)

// Feature kinds, in the order the paper introduces them.
const (
	FeatureFile    = dataset.FeatureFile
	FeatureStrings = dataset.FeatureStrings
	FeatureSymbols = dataset.FeatureSymbols
	FeatureNeeded  = dataset.FeatureNeeded
)

// Model kinds selectable via Config.Model.
const (
	// ModelRF is the paper's Random Forest, the default.
	ModelRF = model.KindRF
	// ModelKNN is the K-nearest-neighbour comparison model.
	ModelKNN = model.KindKNN
	// ModelSVM is the linear one-vs-rest SVM comparison model.
	ModelSVM = model.KindSVM
)

// ModelKinds returns the registered model kind tags, sorted.
func ModelKinds() []string {
	return model.Kinds()
}

// Split modes for SplitTwoPhase.
const (
	// PaperSplit assigns unknown classes from the samples' markers.
	PaperSplit = ml.PaperSplit
	// RandomSplit draws unknown classes randomly (the paper's 80/20).
	RandomSplit = ml.RandomSplit
)

// Finding kinds, one per guiding question of the paper plus the
// blocklist hit.
const (
	// UnknownApplication: the executable resembles no known class.
	UnknownApplication = monitor.UnknownApplication
	// PurposeDeviation: the class is outside the allocation's purpose.
	PurposeDeviation = monitor.PurposeDeviation
	// NewUserBehaviour: the user never ran this class before.
	NewUserBehaviour = monitor.NewUserBehaviour
	// BlockedApplication: the class is blocklisted.
	BlockedApplication = monitor.BlockedApplication
)

// NewMonitor builds a job monitor for a policy. Label each job's
// executable (Classifier.Classify, or an Engine for an always-on
// deployment) and hand the prediction to Monitor.Apply for findings.
func NewMonitor(policy MonitorPolicy) *Monitor {
	return monitor.New(policy)
}

// NewCollector builds an executable collector with an exact-hash
// deduplication cache: repeated executions of the same binary (the common
// case, per the paper) skip feature extraction.
func NewCollector(opt CollectorOptions) *Collector {
	return collector.New(opt)
}

// NewEngine starts a serving engine over a trained classifier. The
// engine micro-batches concurrent Classify calls into the classifier's
// batch path and fronts them with an exact-hash prediction cache, so
// duplicate submissions — the common case in the paper's always-on
// deployment — skip featurisation entirely. Label a production
// Figure-1 workflow's jobs through it before Monitor.Apply, and Close
// it when done. The zero EngineOptions selects serving defaults.
//
// Retrained models deploy without a restart: Engine.Swap installs a new
// classifier with zero downtime and orphans every prediction cached
// under the previous model (see examples/model-swap).
func NewEngine(clf *Classifier, opt EngineOptions) *Engine {
	return serve.New(clf, opt)
}

// NewHTTPServer puts an engine on the network: a versioned JSON API
// (POST /v1/classify, /v1/classify/batch, /v1/model/swap) with health
// probes and a Prometheus /metrics endpoint wired into the engine's
// cache, batching and swap counters. The zero HTTPServerOptions selects
// production defaults: 64 MiB body limit, 8x GOMAXPROCS concurrent
// requests (excess answered 429), server-local path requests disabled.
// Run with ListenAndServe/Serve, drain with Shutdown; the caller keeps
// ownership of the engine (see examples/http-serving).
func NewHTTPServer(engine *Engine, opt HTTPServerOptions) *HTTPServer {
	return httpserve.New(engine, opt)
}

// NewMetricsRegistry returns an empty metrics registry, for sharing one
// exposition between the HTTP layer and application series.
func NewMetricsRegistry() *MetricsRegistry {
	return metrics.NewRegistry()
}

// NewDriftDetector builds a population-drift detector over a
// calibration baseline (Calibration.Baseline from a calibrated
// classifier). Feed it every served verdict — HTTPServerOptions.Drift
// does this on all classify legs — and it latches an alarm when the
// served confidence distribution or unknown-verdict rate departs from
// the baseline. Share the same detector with RetrainOptions.Drift so a
// promoted model re-baselines it atomically with the swap.
func NewDriftDetector(base DriftBaseline, opt DriftOptions) *DriftDetector {
	return openset.NewDetector(base, opt)
}

// NewRetrainer starts the continuous-learning loop over a serving
// engine and the classifier it currently serves: labelled windows are
// harvested into a bounded class-balanced store (confident predictions
// via Retrainer.ObservePrediction, operator ground truth via
// Retrainer.HarvestLabeled), background cycles retrain on the
// configured trigger policy, and a candidate that meets-or-beats the
// incumbent's holdout macro-F1 within the margin is promoted through
// Engine.Swap with zero downtime — a rejected candidate leaves the
// incumbent serving bit-identically. Wire the same Retrainer into
// HTTPServerOptions.Retrainer to expose POST /v1/retrain and GET
// /v1/retrain/status, and Close it when done (the store persists on
// Close). See examples/continuous-learning and OPERATIONS.md.
func NewRetrainer(engine *Engine, incumbent *Classifier, opt RetrainOptions) (*Retrainer, error) {
	return retrain.New(engine, incumbent, opt)
}

// Train fits a Fuzzy Hash Classifier on labelled training samples. With a
// zero Config.Threshold the confidence threshold is tuned on an inner
// split of the training set, as the paper does.
func Train(samples []Sample, cfg Config) (*Classifier, error) {
	return core.Train(samples, cfg)
}

// Load reads a classifier previously stored with Classifier.Save.
func Load(r io.Reader) (*Classifier, error) {
	return core.Load(r)
}

// LoadFile reads a classifier from a model file.
func LoadFile(path string) (*Classifier, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("fhc: %w", err)
	}
	defer f.Close()
	return core.Load(f)
}

// SampleFromBinary extracts all features from an in-memory ELF binary.
func SampleFromBinary(class, version, exe string, bin []byte) (Sample, error) {
	return dataset.FromBinary(class, version, exe, bin)
}

// SampleFromFile extracts all features from an ELF executable on disk.
// The labels are free-form; for unlabelled production binaries pass
// placeholders.
func SampleFromFile(class, version, exe, path string) (Sample, error) {
	bin, err := os.ReadFile(path)
	if err != nil {
		return Sample{}, fmt.Errorf("fhc: %w", err)
	}
	return dataset.FromBinary(class, version, exe, bin)
}

// ScanTree loads labelled samples from an install tree laid out as
// root/Class/Version/executable, the structure the paper scrapes.
// workers <= 0 selects GOMAXPROCS.
func ScanTree(root string, workers int) ([]Sample, error) {
	return dataset.Scan(root, workers)
}

// SplitTwoPhase performs the paper's evaluation split: classes 80/20 into
// known/unknown, then a stratified 60/40 sample split within known
// classes.
func SplitTwoPhase(samples []Sample, opt SplitOptions) (Split, error) {
	return ml.SplitTwoPhase(samples, opt)
}

// StratifiedKFold partitions sample indices into k class-balanced folds
// for cross-validation.
func StratifiedKFold(samples []Sample, k int, seed uint64) ([][]int, error) {
	return ml.StratifiedKFold(samples, k, seed)
}

// SaveSamples writes extracted samples as JSON lines — digests and labels
// only, never binary content.
func SaveSamples(w io.Writer, samples []Sample) error {
	return dataset.SaveSamples(w, samples)
}

// LoadSamples reads samples written by SaveSamples.
func LoadSamples(r io.Reader) ([]Sample, error) {
	return dataset.LoadSamples(r)
}

// ClassificationReport scores predictions against true labels with the
// paper's metrics (per-class precision/recall/f1 plus micro, macro and
// weighted averages).
func ClassificationReport(yTrue, yPred []string) (*Report, error) {
	return ml.ClassificationReport(yTrue, yPred)
}

// GenerateCorpus builds a synthetic corpus of ELF application executables
// following the given class manifest. It substitutes for the paper's
// private cluster dataset; see DESIGN.md for the substitution argument.
func GenerateCorpus(specs []ClassSpec, opt CorpusOptions) (*Corpus, error) {
	return synth.Generate(specs, opt)
}

// SamplesFromCorpus extracts features from a generated corpus in parallel.
func SamplesFromCorpus(c *Corpus, workers int) ([]Sample, error) {
	return dataset.FromCorpus(c, workers)
}

// PaperManifest returns the 92-class corpus manifest reconstructed from
// the paper's Tables 3 and 4.
func PaperManifest() []ClassSpec {
	return synth.PaperManifest()
}

// SmallManifest returns a reduced manifest: the first nKnown known and
// nUnknown unknown paper classes, capped at maxSamples per class
// (0 keeps the paper sizes).
func SmallManifest(nKnown, nUnknown, maxSamples int) []ClassSpec {
	return synth.SmallManifest(nKnown, nUnknown, maxSamples)
}

// DefaultGrid returns the hyper-parameter grid used for the paper-scale
// experiments.
func DefaultGrid() *Grid {
	return core.DefaultGrid()
}
