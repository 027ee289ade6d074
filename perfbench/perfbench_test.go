package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"spatialrepart/internal/obs"
)

// benchmarkFile holds the parts of BENCHMARK.json the self-tests check.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func quickOpts(t *testing.T, workload string, trace bool) opts {
	return opts{workload: workload, seed: 7, seconds: 1, trace: trace, root: t.TempDir(), quick: true}
}

// TestQuickRunsEmitEveryMetric runs a seconds-long quick mode of every
// workload, untraced and traced, and checks that each emits exactly the
// metrics BENCHMARK.json names, with their units, and passes its gate.
func TestQuickRunsEmitEveryMetric(t *testing.T) {
	f := loadBenchmarkFile(t)
	for _, wl := range f.Workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", wl.Name, trace), func(t *testing.T) {
				w, ok := workloads[wl.Name]
				if !ok {
					t.Fatalf("BENCHMARK.json names workload %q, the benchmark has none", wl.Name)
				}
				o := quickOpts(t, wl.Name, trace)
				res, rep, err := execute(w, o)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%t attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, rep.Failures)
				}
				want := map[string]string{}
				if trace {
					for _, m := range f.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range f.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				for name, unit := range want {
					got, ok := res.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", name)
					case got.Unit != unit:
						t.Errorf("metric %s in %s, BENCHMARK.json says %s", name, got.Unit, unit)
					case !trace && !(got.Value > 0):
						t.Errorf("end-to-end metric %s = %v, want > 0", name, got.Value)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s is not in BENCHMARK.json", name)
					}
				}
				if trace {
					if _, err := os.Stat(rep.SpanFile); err != nil {
						t.Errorf("span file: %v", err)
					}
				}
			})
		}
	}
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json, the per-layer table and
// the workload parameters the why lines quote in step.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	f := loadBenchmarkFile(t)
	if len(f.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(f.PerLayer), len(perLayerMetrics))
	}
	for i, m := range perLayerMetrics {
		got := f.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per_layer[%d] = %+v, code has %+v", i, got, m)
		}
	}
	if len(f.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the code %d", len(f.Workloads), len(workloads))
	}
	quoted := map[string][]string{
		"batch":        {fmt.Sprintf("%dx%dx4", batchConfigFor(false).rows, batchConfigFor(false).cols), "theta 0.1"},
		"serve-read":   {fmt.Sprintf("%d reads/s", serveReadRate), "70/20/10"},
		"cluster-read": {fmt.Sprintf("%d reads/s", clusterReadRate)},
		"ingest":       {fmt.Sprintf("K=%d", ingestK), fmt.Sprintf("%d records/s", ingestRate), fmt.Sprintf("%g reads/s", ingestConfigFor(false).rate), "sync=always"},
	}
	for _, wl := range f.Workloads {
		for _, q := range quoted[wl.Name] {
			if !strings.Contains(wl.Why, q) {
				t.Errorf("why of %s does not quote %q: %s", wl.Name, q, wl.Why)
			}
		}
	}
}

// TestCorruptedOutputTripsGate feeds the correctness checks corrupted
// outputs: each must be caught and counted as a failed operation.
func TestCorruptedOutputTripsGate(t *testing.T) {
	g := geometry{rows: 2, cols: 2, theta: 0.1}
	good := `{"rows":2,"cols":2,"groups":2,"ifl":0.05,"cell_groups":[` +
		`{"row_begin":0,"row_end":0,"col_begin":0,"col_end":1,"cells":2,"features":[1]},` +
		`{"row_begin":1,"row_end":1,"col_begin":0,"col_end":1,"cells":2,"features":[2]}]}`
	if err := checkRead(readReq{class: classView}, []byte(good), g); err != nil {
		t.Fatalf("intact view rejected: %v", err)
	}
	corrupt := map[string]struct {
		q    readReq
		body string
	}{
		"overlap":      {readReq{class: classView}, strings.Replace(good, `"row_begin":1,"row_end":1`, `"row_begin":0,"row_end":1`, 1)},
		"hole":         {readReq{class: classView}, strings.Replace(good, `"col_begin":0,"col_end":1,"cells":2,"features":[2]`, `"col_begin":0,"col_end":0,"cells":1,"features":[2]`, 1)},
		"ifl":          {readReq{class: classSummary}, `{"rows":2,"cols":2,"groups":2,"ifl":0.2}`},
		"degraded":     {readReq{class: classSummary}, `{"degraded":true,"rows":2,"cols":2,"groups":2,"ifl":0.05}`},
		"truncated":    {readReq{class: classView}, good[:len(good)/2]},
		"cell outside": {readReq{class: classPoint, row: 1, col: 1}, `{"row":1,"col":1,"group":{"row_begin":0,"row_end":0,"col_begin":0,"col_end":1,"cells":2}}`},
	}
	for name, c := range corrupt {
		if err := checkRead(c.q, []byte(c.body), g); err == nil {
			t.Errorf("%s: corrupted response passed the check", name)
		}
	}

	// A read whose body fails its check counts as failed.
	var tl tally
	readPhase([]readResult{{req: readReq{class: classSummary}, status: 200,
		body: []byte(corrupt["ifl"].body)}}, g, &tl, map[string]float64{})
	if tl.attempted != 1 || tl.failed != 1 {
		t.Errorf("corrupted read: attempted=%d failed=%d, want 1 and 1", tl.attempted, tl.failed)
	}

	// A batch run that differs from the reference fails the run.
	o := quickOpts(t, "batch", false)
	if err := os.MkdirAll(o.workDir(), 0o755); err != nil {
		t.Fatal(err)
	}
	in, err := setupBatch(o, nil, &tally{})
	if err != nil {
		t.Fatal(err)
	}
	b := in.(*batchInstance)
	defer b.close(&tally{})
	ref, err := b.pipeline(0, false)
	if err != nil {
		t.Fatal(err)
	}
	var bt tally
	b.check(ref, ref, &bt)
	if bt.failed != 0 {
		t.Fatalf("reference compared with itself: %v", bt.failures)
	}
	bad := ref
	bad.result = "0000000000000000"
	b.check(bad, ref, &bt)
	bad = ref
	bad.csv = "0000000000000000"
	b.check(bad, ref, &bt)
	bad = ref
	bad.ifl = 2 * b.cfg.theta
	b.check(bad, ref, &bt)
	if bt.failed != 3 {
		t.Errorf("three corrupted batch runs: %d failed, want 3: %v", bt.failed, bt.failures)
	}
}

// TestSelfTimeAddsUp checks, on real traced phases with sequential children
// (batch) and parallel ones (cluster scatter), that the layers' self times on
// the critical path plus the residual equal each operation's end-to-end
// time.
func TestSelfTimeAddsUp(t *testing.T) {
	for _, c := range []struct{ workload, root string }{{"batch", spanBatch}, {"cluster-read", spanRequest}, {"ingest", spanRequest}} {
		t.Run(c.workload, func(t *testing.T) {
			o := quickOpts(t, c.workload, true)
			if err := os.MkdirAll(o.workDir(), 0o755); err != nil {
				t.Fatal(err)
			}
			tr := newRecorder(o.seed)
			var tl tally
			in, err := workloads[c.workload].setup(o, tr, &tl)
			if err != nil {
				t.Fatal(err)
			}
			ph, err := in.measure(time.Second, &tl)
			if cerr := in.close(&tl); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatal(err)
			}
			if tl.failed != 0 {
				t.Fatalf("failures: %v", tl.failures)
			}
			ops := operations(tr.snapshot(), c.root)
			if len(ops) == 0 {
				t.Fatal("no traced operation")
			}
			var sumSelf, sumResidual, sumE2E int64
			for _, op := range ops {
				self := int64(0)
				for _, v := range op.self {
					self += v
				}
				if self+op.residual != op.e2e {
					t.Errorf("op at %d: self %d + residual %d != end-to-end %d", op.root.start, self, op.residual, op.e2e)
				}
				if op.residual < 0 {
					t.Errorf("op at %d: negative residual %d", op.root.start, op.residual)
				}
				sumSelf += self
				sumResidual += op.residual
				sumE2E += op.e2e
			}
			if sumSelf+sumResidual != sumE2E {
				t.Errorf("Σ self %d + Σ residual %d != Σ end-to-end %d", sumSelf, sumResidual, sumE2E)
			}
			if got, want := ph.layers["residual_ms"], ms(sumResidual)/float64(len(ops)); c.workload != "ingest" && !near(got, want) {
				t.Errorf("residual_ms = %v, want the mean residual %v", got, want)
			}
			if c.workload == "cluster-read" {
				scattered := false
				for _, op := range ops {
					if op.root.class != "point" && op.self["cluster"] > 0 && op.self["server"] > 0 {
						scattered = true
					}
				}
				if !scattered {
					t.Error("no view read split its time between the coordinator and a shard")
				}
			}
		})
	}
}

func near(a, b float64) bool { return a-b < 1e-9 && b-a < 1e-9 }

// TestCriticalPath pins the walk on a hand-built trace: sequential children
// all count, of two parallel legs only the slower one does.
func TestCriticalPath(t *testing.T) {
	r := newRecorder(1)
	root, _ := r.child(obs.TraceContext{})
	kid := func(parent obs.TraceContext, name string, start, end int64) obs.TraceContext {
		tc, _ := r.child(parent)
		r.add(span{trace: tc.TraceID, id: tc.SpanID, parent: parent.SpanID, name: name, start: start, end: end})
		return tc
	}
	r.add(span{trace: root.TraceID, id: root.SpanID, name: spanRequest, start: 0, end: 100})
	coord := kid(root, spanCoordinator, 10, 90)
	kid(coord, spanServer, 20, 60)
	slow := kid(coord, spanServer, 15, 70)
	kid(slow, spanCurrent, 20, 50)
	ops := operations(r.snapshot(), spanRequest)
	if len(ops) != 1 {
		t.Fatalf("%d operations, want 1", len(ops))
	}
	o := ops[0]
	if o.residual != 20 || o.self["cluster"] != 25 || o.self["server"] != 25 || o.self["stream"] != 30 {
		t.Errorf("residual %d, self %v; want 20 and cluster 25, server 25, stream 30", o.residual, o.self)
	}
}

// TestBatchRungEvalsMatchReport checks that each traced batch run's report,
// taken from a fresh observer, counts exactly its own rung evaluations.
func TestBatchRungEvalsMatchReport(t *testing.T) {
	o := quickOpts(t, "batch", true)
	if err := os.MkdirAll(o.workDir(), 0o755); err != nil {
		t.Fatal(err)
	}
	in, err := setupBatch(o, newRecorder(o.seed), &tally{})
	if err != nil {
		t.Fatal(err)
	}
	b := in.(*batchInstance)
	defer b.close(&tally{})
	for i := 0; i < 3; i++ {
		run, err := b.pipeline(0, true)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := run.report.Phases["rung.eval"].Count, int64(run.report.Evaluations); got != want || want == 0 {
			t.Errorf("run %d: %d rung.eval spans, report counts %d evaluations", i, got, want)
		}
	}
}
