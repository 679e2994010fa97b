// Command perfbench is the repository's benchmark. One run sets up a
// corpus and a calibrated model, brings up an in-process fleet (one
// consistent-hash router in front of two workers, on loopback TCP),
// drives one workload for a fixed time, checks every answer against an
// oracle, and prints each metric by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// traced run reports the per-layer ones and prints where a request's
// time goes. Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload cold-upload --seed 44 --seconds 30 --trace 0
//
// --seed draws the upload trailers, the probe order, the cold-upload
// answers the oracle re-derives and the batch-report chunks. The corpus,
// the split, training and calibration are fixed by corpusSeed, so the
// model and its macro-F1 are the same on every run: featurisation cost
// differs by up to 2x between corpus realisations, which would swamp
// every other difference, and macro_f1 is only an accuracy guard if a
// change in it means the program changed.
//
// Workloads (all load comes from this one process, with at most
// GOMAXPROCS concurrent callers):
//
//   - cold-upload: one connection per processor uploads held-out
//     binaries, each with a unique seeded trailer, so every request pays
//     ingest, featurize, model and decide and inserts into both caches.
//   - warm-probe: one connection sends hash-first probes for held-out
//     binaries uploaded once beforehand; only the router, the HTTP layer
//     and the prediction-cache lookup work.
//   - batch-report: one offline caller runs Classifier.ClassifyBatch
//     over fixed chunks of the held-out samples: the paper's evaluation
//     path, no HTTP and no ingest.
//
// BENCHMARK.json gates cold-upload and batch-report only. A warm probe
// takes about 0.1 ms, so its tail is set by how fast the hypervisor
// wakes a halted vCPU and by the CPU time it steals: with 15-30% of
// the host's time stolen its p99 rose from 0.4 ms to 0.9-4 ms, while
// the program was unchanged. warm-probe stays runnable by hand.
package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/serve"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	scale    string
	setups   int
	warmup   time.Duration
	dir      string
	// conns is the processor count: cold-upload's connections, and the
	// parallelism of the untimed preload and oracle checks.
	conns int
	// wrapBackend, when non-nil, wraps every worker's serving backend.
	// Only the benchmark's tests set it, to inject wrong answers.
	wrapBackend func(serve.Backend) serve.Backend
}

var workloads = []string{"cold-upload", "warm-probe", "batch-report"}

// fleetWorkers is the number of workers behind the router.
const fleetWorkers = 2

// Latency quantiles are taken per window of at least windowOps
// operations: the fewest that still leave ten samples beyond a p99.
const windowOps = 1000

// corpusSeed seeds the synthetic corpus (44 is the published
// realisation), the split, training and calibration.
const corpusSeed = 44

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run parses args, runs the benchmark and writes its report to stdout.
// It returns the process exit code.
func run(args []string, stdout, stderr io.Writer, wrap func(serve.Backend) serve.Backend) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &config{wrapBackend: wrap}
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Uint64Var(&cfg.seed, "seed", 44, "seed of the upload trailers, probe order, oracle subset and batch chunks")
	fs.IntVar(&cfg.seconds, "seconds", 30, "length of each timed phase, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	fs.StringVar(&cfg.scale, "scale", "medium", "corpus scale: medium, or small for smoke tests")
	fs.IntVar(&cfg.setups, "setups", 3, "set-ups per run; setup_s is their median")
	fs.DurationVar(&cfg.warmup, "warmup", 2*time.Second, "untimed load before each timed phase")
	fs.StringVar(&cfg.dir, "dir", filepath.Join(".bench_build", "run"), "scratch directory for the model artifact")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace == 1
	cfg.conns = runtime.GOMAXPROCS(0)
	switch {
	case !slices.Contains(workloads, cfg.workload):
		fmt.Fprintf(stderr, "perfbench: --workload must be one of %s\n", strings.Join(workloads, ", "))
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	case cfg.seconds < 1 || cfg.setups < 1:
		fmt.Fprintln(stderr, "perfbench: --seconds and --setups must be positive")
		return 2
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res, err := bench(cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line every run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics and prints each one as it is set.
type report struct {
	out     io.Writer
	metrics map[string]metric
}

func (r *report) set(name string, v float64, unit, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Fprintf(r.out, "metric %-32s %14.6g %-6s%s\n", name, v, unit, note)
}

// bench runs the set-ups and the workload and returns the result line.
func bench(cfg *config, out io.Writer) (*result, error) {
	printMachine(cfg, out)
	tr := &tracer{}
	var e *env
	setupTimes := make([]float64, 0, cfg.setups)
	for i := 0; i < cfg.setups; i++ {
		if e != nil {
			e.close()
			e = nil
			runtime.GC()
		}
		var d time.Duration
		var err error
		e, d, err = setup(cfg, tr)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, d.Seconds())
		fmt.Fprintf(out, "setup %d/%d: %.3f s\n", i+1, cfg.setups, d.Seconds())
	}
	defer e.close()
	t0 := time.Now()
	e.computeOracle()
	fmt.Fprintf(out, "corpus %d samples, trained on %d, held out %d (%d classes known); oracle %.3f s\n",
		e.corpusSamples, e.trainSamples, len(e.held), len(e.ref.Classes()), time.Since(t0).Seconds())

	r := newRunner(cfg, e, tr)
	rep := &report{out: out, metrics: map[string]metric{}}
	var all []*phase
	keep := func(p phase) *phase {
		all = append(all, &p)
		return &p
	}
	keep(r.prepare())
	keep(r.closedLoop("warm-up", cfg.warmup))
	dur := time.Duration(cfg.seconds) * time.Second
	// The heap is read before the timed phase, once the caches hold the
	// preload and the warm-up: cold-upload's caches grow by one entry
	// per upload, so a heap read after it would grow with throughput.
	heapBefore := r.liveHeapMiB(all)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := readHostCPU()
	timed := keep(r.closedLoop("timed", dur))
	cpu1 := readHostCPU()
	runtime.ReadMemStats(&ms1)
	fmt.Fprintf(out, "timed phase: %d GC cycles, %.3f ms paused; host %s\n", ms1.NumGC-ms0.NumGC,
		float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, cpu1.since(cpu0))
	if cfg.trace {
		base := e.fleet.counters()
		tr.on.Store(true)
		traced := keep(r.closedLoop("traced", dur))
		tr.on.Store(false)
		delta := e.fleet.counters().sub(base)
		if cfg.workload == "cold-upload" {
			r.checkCold(timed)
			r.checkCold(traced)
		}
		if err := perLayer(rep, r, timed, traced, delta, &ms0, &ms1); err != nil {
			return nil, err
		}
	} else {
		checked := 0
		if cfg.workload == "cold-upload" {
			checked = r.checkCold(timed)
		}
		if err := endToEnd(rep, r, timed, setupTimes, checked); err != nil {
			return nil, err
		}
		attempted, _ := timed.totals()
		heapAfter := r.liveHeapMiB(all)
		rep.set("heap_live_MiB", heapBefore, "MiB", fmt.Sprintf(
			"before the timed phase, less the %.1f MiB of held-out binaries the client sends; after it %.3f MiB, %+.3f KiB per classification",
			float64(e.heldBytes())/(1<<20), heapAfter, ratio(1024*(heapAfter-heapBefore), float64(attempted))))
	}

	res := &result{Metrics: rep.metrics}
	fmt.Fprintf(out, "%-12s %10s %10s %10s %9s\n", "phase", "attempted", "succeeded", "failed", "wall_s")
	for _, p := range all {
		a, f := p.totals()
		res.Attempted += a
		res.Failed += f
		fmt.Fprintf(out, "%-12s %10d %10d %10d %9.3f\n", p.name, a, a-f, f, p.wall.Seconds())
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if res.Attempted == 0 {
		return nil, errors.New("no operation completed")
	}
	return res, nil
}

// endToEnd reports the user-visible metrics of the untraced timed phase.
func endToEnd(rep *report, r *runner, p *phase, setupTimes []float64, checked int) error {
	attempted, failed := p.totals()
	byEnd := slices.Clone(p.records)
	slices.SortFunc(byEnd, func(a, b record) int { return cmp.Compare(a.at, b.at) })
	lat := make([]float64, len(byEnd))
	for i := range byEnd {
		lat[i] = float64(byEnd[i].lat) / float64(time.Millisecond)
	}
	unitWord := "requests"
	if r.cfg.workload == "batch-report" {
		unitWord = fmt.Sprintf("chunks of %d", batchChunk)
	}
	// The host's speed drifts over seconds, and a stall of a few hundred
	// milliseconds moves a whole phase's tail. So the latencies are cut,
	// in completion order, into windows of at least windowOps operations
	// each, and the median of the windows' quantiles is reported: a
	// stall that spans fewer than half the windows does not move it.
	k := max(1, len(lat)/windowOps)
	var p50s, tails []float64
	tq := tailQuantile(len(lat) / k)
	for w := 0; w < k; w++ {
		seg := slices.Clone(lat[w*len(lat)/k : (w+1)*len(lat)/k])
		p50s = append(p50s, quantile(seg, 0.5))
		tails = append(tails, quantile(seg, tq))
	}
	rep.set("setup_s", median(setupTimes), "s", fmt.Sprintf("median of %d set-ups: %s", len(setupTimes), fmtFloats(setupTimes)))
	rep.set("classify_per_s", float64(attempted-failed)/p.wall.Seconds(), "1/s",
		fmt.Sprintf("%d correct in %.3f s", attempted-failed, p.wall.Seconds()))
	rep.set("latency_p50_ms", median(p50s), "ms", fmt.Sprintf("median over %d windows of %d of the %d %s; whole phase %.4g ms",
		k, len(lat)/k, len(lat), unitWord, median(lat)))
	rep.set("latency_p99_ms", median(tails), "ms", fmt.Sprintf("p%.4g, median over the same windows; whole phase p%.4g %.4g ms",
		100*tq, 100*tailQuantile(len(lat)), quantile(lat, tailQuantile(len(lat)))))
	errRatio := ratio(float64(failed), float64(attempted))
	note := fmt.Sprintf("error_ratio %.6g = %d failed or wrong / %d attempted", errRatio, failed, attempted)
	if checked > 0 {
		note += fmt.Sprintf("; %d answers re-derived by the oracle", checked)
	}
	rep.set("correct_ratio", 1-errRatio, "ratio", note)
	fmt.Fprintf(rep.out, "correct operations per second of the phase: %s\n", perSecond(p))
	f1, err := r.env.macroF1()
	if err != nil {
		return fmt.Errorf("macro_f1: %w", err)
	}
	rep.set("macro_f1", f1, "ratio", fmt.Sprintf("served model over the %d held-out binaries", len(r.env.held)))
	return nil
}

// liveHeapMiB releases the client's per-operation records of the given
// phases, which grow with throughput, forces a collection and returns
// the live heap less the held-out binaries. What the client still holds
// is the same on every run: the held-out set, the oracle and the
// reference classifier.
func (r *runner) liveHeapMiB(phases []*phase) float64 {
	for _, p := range phases {
		p.release()
	}
	// The first collection moves sync.Pool contents to the pools' victim
	// caches, the second frees them.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc-r.env.heldBytes()) / (1 << 20)
}

func printMachine(cfg *config, out io.Writer) {
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, v, ok := strings.Cut(line, ":"); ok {
					cpu = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%d trace=%v scale=%s setups=%d warmup=%s callers=%d workers=%d chunk=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.scale, cfg.setups, cfg.warmup, cfg.callers(), fleetWorkers, batchChunk)
	fmt.Fprintf(out, "machine cpu=%q nproc=%d GOMAXPROCS=%d go=%s %s/%s\n",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// hostCPU is the machine-wide CPU time from /proc/stat, in clock ticks.
type hostCPU struct {
	busy, idle, steal uint64
	ok                bool
}

func readHostCPU() hostCPU {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}
	}
	var v [8]uint64
	for i := range v {
		v[i], _ = strconv.ParseUint(f[i+1], 10, 64)
	}
	// user nice system idle iowait irq softirq steal
	return hostCPU{busy: v[0] + v[1] + v[2] + v[5] + v[6], idle: v[3] + v[4], steal: v[7], ok: true}
}

// since describes the CPU time spent between two readings: the share
// the hypervisor gave to other guests (steal) shows how contended the
// host was while a phase ran.
func (c hostCPU) since(prev hostCPU) string {
	busy, idle, steal := c.busy-prev.busy, c.idle-prev.idle, c.steal-prev.steal
	total := busy + idle + steal
	if !c.ok || !prev.ok || total == 0 {
		return "CPU use unknown"
	}
	return fmt.Sprintf("CPU busy %.1f%%, idle %.1f%%, stolen %.1f%%",
		100*float64(busy)/float64(total), 100*float64(idle)/float64(total), 100*float64(steal)/float64(total))
}

func fmtFloats(vs []float64) string {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	parts := make([]string, len(s))
	for i, v := range s {
		parts[i] = fmt.Sprintf("%.3f", v)
	}
	return strings.Join(parts, " ")
}

// perSecond is the correct-operation rate in each second of a phase,
// which shows drift within a run.
func perSecond(p *phase) string {
	n := make([]int, max(1, int(p.wall.Seconds())))
	for i := range p.records {
		k := min(int(p.records[i].at/time.Second), len(n)-1)
		n[k] += int(p.records[i].n - p.records[i].bad)
	}
	parts := make([]string, len(n))
	for k := range n {
		parts[k] = strconv.Itoa(n[k])
	}
	return strings.Join(parts, " ")
}
