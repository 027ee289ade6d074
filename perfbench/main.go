// Command perfbench is the repository benchmark. One invocation runs one
// workload in-process against the public entry points of the grid, core,
// stream, wal, server and cluster packages and prints, as the last line of
// its standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Untraced runs (-trace 0) report the end-to-end metrics named in
// BENCHMARK.json; traced runs (-trace 1) report the per-layer metrics, from
// spans the benchmark records around its calls into each package and from
// counters the packages already export, and write those spans as Chrome
// trace-event JSON. Run it from the root of a checkout through run.sh:
//
//	bash perfbench/run.sh --workload serve-read --seed 3 --seconds 15 --trace 0
//
// README.md in this directory lists the workloads, the metrics and which
// end-to-end metric each per-layer metric is expected to move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opts are the command-line settings of one run.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // checkout root; everything written goes under workDir
	quick    bool   // small inputs, for the self-tests
}

// workDir is where a run keeps its inputs, logs and span files.
func (o opts) workDir() string { return filepath.Join(o.root, ".bench_build", "perfbench", "work") }

func (o opts) window() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var o opts
	var trace int
	fl.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fl.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fl.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase in seconds")
	fl.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	fl.StringVar(&o.root, "root", ".", "root of the checkout")
	fingerprints := fl.Int("fingerprints", 0, "print the input fingerprints of seeds 0..n-1 as JSON and exit")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if *fingerprints > 0 {
		return printFingerprints(*fingerprints, stdout, stderr)
	}
	w, ok := workloads[o.workload]
	if !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: want -workload one of %s, -trace 0|1 and -seconds > 0\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	res, rep, err := execute(w, o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// report is printed on the line before the result: the provenance of the
// run, the workload's own metrics under the names the workload defines them
// by, and every correctness failure.
type report struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Traced     bool               `json:"traced"`
	NumCPU     int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	Commit     string             `json:"commit"`
	Params     map[string]any     `json:"params"`
	Inputs     string             `json:"inputs"`
	Detail     map[string]float64 `json:"detail,omitempty"`
	Warnings   []string           `json:"warnings,omitempty"`
	Failures   []string           `json:"failures,omitempty"`
	SpanFile   string             `json:"span_file,omitempty"`
}

// tally counts operations and correctness failures across a run.
type tally struct {
	attempted, failed int64
	failures          []string
	warnings          []string
}

// fail records a failed check; it counts as a failed operation and fails the
// run.
func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.failures) < 20 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

func (t *tally) warn(format string, args ...any) {
	t.warnings = append(t.warnings, fmt.Sprintf(format, args...))
}

// workload is one benchmark workload. setup builds an instance ready to
// measure (inputs generated, servers up); the instance measures one phase at
// a time and reports its metrics.
type workload struct {
	name   string
	params func(quick bool) map[string]any
	// inputs generates the seed's inputs and returns their fingerprint,
	// keyed by what was generated: dataset and size, and the seed where the
	// inputs depend on it.
	inputs func(seed int64, quick bool) (key, digest string)
	// setup builds an instance; with tr set, the instance records spans
	// into tr and attaches fresh observers to the packages it drives.
	setup func(o opts, tr *recorder, t *tally) (instance, error)
}

type instance interface {
	// inputs returns the fingerprint of the inputs the instance generated.
	inputs() (key, digest string)
	// measure runs one measured phase of length d.
	measure(d time.Duration, t *tally) (phase, error)
	close(t *tally) error
}

// phase is the outcome of one measured phase.
type phase struct {
	ops    int  // primary operations completed
	cost   cost // what the phase cost the process
	detail map[string]float64
	layers map[string]float64 // per-layer metrics (traced phases only)
}

// cpuMS is the CPU time per primary operation, ms.
func (p phase) cpuMS() float64 {
	if p.ops == 0 {
		return 0
	}
	return durMS(p.cost.user+p.cost.sys) / float64(p.ops)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

var workloads = map[string]*workload{
	"batch":        batchWorkload,
	"serve-read":   serveReadWorkload,
	"cluster-read": clusterReadWorkload,
	"ingest":       ingestWorkload,
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 3

func execute(w *workload, o opts) (*result, *report, error) {
	t := &tally{}
	if err := os.MkdirAll(o.workDir(), 0o755); err != nil {
		return nil, nil, err
	}
	rep := &report{
		Workload: w.name, Seed: o.seed, Traced: o.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: sourceDigest(o.root), Params: w.params(o.quick),
	}
	rep.Params["seconds"] = o.seconds

	res := &result{Metrics: map[string]metric{}}
	if o.trace {
		if err := tracedRun(w, o, t, rep, res); err != nil {
			return nil, nil, err
		}
	} else if err := untracedRun(w, o, t, rep, res); err != nil {
		return nil, nil, err
	}
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Correct = t.failed == 0 && len(t.failures) == 0
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed++
		res.Correct = false
		t.failures = append(t.failures, "no operation completed")
	}
	rep.Failures, rep.Warnings = t.failures, t.warnings
	return res, rep, nil
}

// untracedRun sets the workload up setupReps times, keeps the last instance
// and measures one phase with tracing off.
func untracedRun(w *workload, o opts, t *tally, rep *report, res *result) error {
	var setups []float64
	var inst instance
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		in, err := w.setup(o, nil, t)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i == 0 {
			rep.Inputs = checkInputs(in, t)
		}
		if i < setupReps-1 {
			if err := in.close(t); err != nil {
				return err
			}
			continue
		}
		inst = in
	}
	ph, err := inst.measure(o.window(), t)
	if cerr := inst.close(t); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["heap_mb"] = metric{ph.cost.heapMB, "MB"}
	res.Metrics["alloc_mb"] = metric{ph.cost.allocMB / float64(ph.ops), "MB"}
	res.Metrics["cpu_ms"] = metric{ph.cpuMS(), "ms"}
	ph.detail["cpu_user_s"] = ph.cost.user.Seconds()
	ph.detail["cpu_sys_s"] = ph.cost.sys.Seconds()
	rep.Detail = ph.detail
	return nil
}

// tracedRun measures an untraced phase and then a traced phase on a fresh
// instance with fresh observers, and reports the per-layer metrics of the
// traced phase plus the tracing overhead between the two.
func tracedRun(w *workload, o opts, t *tally, rep *report, res *result) error {
	measure := func(tr *recorder) (phase, error) {
		in, err := w.setup(o, tr, t)
		if err != nil {
			return phase{}, err
		}
		rep.Inputs = checkInputs(in, t)
		ph, err := in.measure(o.window(), t)
		if cerr := in.close(t); err == nil {
			err = cerr
		}
		return ph, err
	}
	bare, err := measure(nil)
	if err != nil {
		return err
	}
	tr := newRecorder(o.seed)
	ph, err := measure(tr)
	if err != nil {
		return err
	}
	for _, m := range perLayerMetrics {
		res.Metrics[m.name] = metric{ph.layers[m.name], m.unit}
	}
	over := 0.0
	if bare.cpuMS() > 0 {
		over = (ph.cpuMS() - bare.cpuMS()) / bare.cpuMS() * 100
	}
	res.Metrics["trace_overhead_pct"] = metric{over, "%"}
	rep.Detail = ph.detail
	path := filepath.Join(o.workDir(), fmt.Sprintf("spans-%s-seed%d.json", w.name, o.seed))
	if err := tr.writeFile(path); err != nil {
		return err
	}
	rep.SpanFile = path
	return nil
}

// sourceDigest identifies the code under test without relying on version
// control: a SHA-256 over the path and content of every Go source and module
// file of the checkout (the benchmark's included), outside hidden
// directories.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return "sources-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
