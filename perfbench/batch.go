package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"spatialrepart/internal/core"
	"spatialrepart/internal/datagen"
	"spatialrepart/internal/grid"
	"spatialrepart/internal/obs"
)

// batchConfig sizes the batch workload: the repart -in -out pipeline at
// -workers 0, θ = 0.1, geometric schedule, on a taxi-multi grid.
type batchConfig struct {
	rows, cols int
	theta      float64
}

func batchConfigFor(quick bool) batchConfig {
	if quick {
		return batchConfig{rows: 64, cols: 64, theta: 0.1}
	}
	return batchConfig{rows: 1024, cols: 1024, theta: 0.1}
}

func (c batchConfig) key() string {
	return fmt.Sprintf("taxi-multi-%dx%d/seed=%d", c.rows, c.cols, datasetSeed)
}

var batchWorkload = &workload{
	name: "batch",
	params: func(quick bool) map[string]any {
		c := batchConfigFor(quick)
		return map[string]any{"grid": fmt.Sprintf("%dx%dx4 taxi-multi CSV", c.rows, c.cols), "theta": c.theta,
			"schedule": "geometric", "workers": 0}
	},
	inputs: func(seed int64, quick bool) (string, string) {
		c := batchConfigFor(quick)
		return c.key(), gridDigest(datagen.TaxiTripsMulti(datasetSeed, c.rows, c.cols).Grid)
	},
	setup: setupBatch,
}

type batchInstance struct {
	cfg         batchConfig
	key, digest string
	in, out     string // CSV paths
	tr          *recorder
}

// setupBatch generates the input grid and writes it as the pipeline's CSV.
// The grid is the fixed dataset; the batch workload has no request stream
// for the seed to vary.
func setupBatch(o opts, tr *recorder, t *tally) (instance, error) {
	c := batchConfigFor(o.quick)
	g := datagen.TaxiTripsMulti(datasetSeed, c.rows, c.cols).Grid
	in := &batchInstance{
		cfg: c, key: c.key(), digest: gridDigest(g), tr: tr,
		in:  filepath.Join(o.workDir(), fmt.Sprintf("batch-seed%d-in.csv", o.seed)),
		out: filepath.Join(o.workDir(), fmt.Sprintf("batch-seed%d-out.csv", o.seed)),
	}
	if err := createFile(in.in, g.WriteCSV); err != nil {
		return nil, err
	}
	return in, nil
}

func (in *batchInstance) inputs() (string, string) { return in.key, in.digest }

// pipelineRun is one run of the pipeline and what it produced.
type pipelineRun struct {
	wall    time.Duration
	result  string  // digest of partition, features and IFL
	csv     string  // digest of the written CSV
	ifl     float64 // the run's information loss
	report  *core.RunReport
	spans   []span
	workers int
}

// pipeline runs grid.ReadCSV → core.Repartition → ReconstructGrid → WriteCSV
// once. When traced it records a span around each call and runs
// RepartitionWithReport with a fresh observer, so the report describes this
// run alone.
func (in *batchInstance) pipeline(workers int, traced bool) (pipelineRun, error) {
	run := pipelineRun{workers: workers}
	var root obs.TraceContext
	var rootStart int64
	step := func(name string, fn func() error) error {
		if !traced {
			return fn()
		}
		tc, start := in.tr.child(root)
		err := fn()
		run.spans = append(run.spans, span{trace: tc.TraceID, id: tc.SpanID, parent: root.SpanID, name: name, start: start, end: in.tr.now()})
		return err
	}
	if traced {
		root, rootStart = in.tr.child(obs.TraceContext{})
	}
	start := time.Now()
	var g *grid.Grid
	err := step(spanRead, func() error {
		f, err := os.Open(in.in)
		if err != nil {
			return err
		}
		defer f.Close()
		g, err = grid.ReadCSV(f)
		return err
	})
	if err != nil {
		return run, err
	}
	opts := core.Options{Threshold: in.cfg.theta, Schedule: core.ScheduleGeometric, Workers: workers}
	var rp *core.Repartitioned
	err = step(spanRepartition, func() error {
		var err error
		if traced {
			opts.Obs = obs.New()
			rp, run.report, err = core.RepartitionWithReport(g, opts)
		} else {
			rp, err = core.Repartition(g, opts)
		}
		return err
	})
	if err != nil {
		return run, err
	}
	var reduced *grid.Grid
	if err := step(spanReconstruct, func() error { reduced = rp.ReconstructGrid(); return nil }); err != nil {
		return run, err
	}
	if err := step(spanWrite, func() error { return createFile(in.out, reduced.WriteCSV) }); err != nil {
		return run, err
	}
	run.wall = time.Since(start)
	if traced {
		run.spans = append(run.spans, span{trace: root.TraceID, id: root.SpanID, name: spanBatch, start: rootStart, end: in.tr.now()})
	}
	run.ifl = rp.IFL
	run.result = resultDigest(rp)
	run.csv, err = fileDigest(in.out)
	return run, err
}

func (in *batchInstance) measure(d time.Duration, t *tally) (phase, error) {
	traced := in.tr != nil
	// The reference run doubles as warm-up: every measured run must
	// reproduce its partition, features, IFL and output bytes.
	ref, err := in.pipeline(0, false)
	if err != nil {
		return phase{}, err
	}
	if ref.ifl > in.cfg.theta {
		t.fail("reference run: IFL %v > θ %v", ref.ifl, in.cfg.theta)
	}
	ph := phase{detail: map[string]float64{}}
	var runs []pipelineRun
	var wall []float64
	use := startUsage()
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < d; n++ {
		run, err := in.pipeline(0, traced)
		t.attempted++
		if err != nil {
			t.fail("pipeline: %v", err)
			continue
		}
		in.check(run, ref, t)
		runs = append(runs, run)
		wall = append(wall, durMS(run.wall))
	}
	ph.cost = use.finish()
	if len(wall) == 0 {
		return ph, fmt.Errorf("no pipeline run completed")
	}
	ph.ops = len(wall)
	ph.detail["runs"] = float64(len(wall))
	ph.detail["batch_s"] = median(wall) / 1e3
	ph.detail["batch_alloc_mb"] = ph.cost.allocMB / float64(ph.ops)
	if traced {
		ph.layers, err = in.layers(runs, ref, t)
	}
	return ph, err
}

// check compares one run with the reference run.
func (in *batchInstance) check(run, ref pipelineRun, t *tally) {
	switch {
	case run.ifl > in.cfg.theta:
		t.fail("run at %d workers: IFL %v > θ %v", run.workers, run.ifl, in.cfg.theta)
	case run.result != ref.result:
		t.fail("run at %d workers: partition/features/IFL digest %s, reference %s", run.workers, run.result, ref.result)
	case run.csv != "" && run.csv != ref.csv:
		t.fail("run at %d workers: output CSV digest %s, reference %s", run.workers, run.csv, ref.csv)
	}
	if run.report != nil {
		if n := run.report.Phases["rung.eval"].Count; n != int64(run.report.Evaluations) {
			t.fail("run report: %d rung.eval spans for %d evaluations", n, run.report.Evaluations)
		}
	}
}

// layers condenses the traced runs into the grid and core metrics, and adds
// one Workers: 1 run of the core as the single-thread baseline.
func (in *batchInstance) layers(runs []pipelineRun, ref pipelineRun, t *tally) (map[string]float64, error) {
	m := map[string]float64{}
	bySpan := map[string][]float64{}
	var all []span
	phases := map[string][]float64{}
	var evals, useful []float64
	for _, r := range runs {
		all = append(all, r.spans...)
		for _, s := range r.spans {
			bySpan[s.name] = append(bySpan[s.name], float64(s.dur())/1e9)
		}
		for name, p := range r.report.Phases {
			phases[name] = append(phases[name], float64(p.TotalNS)/1e9)
		}
		evals = append(evals, float64(r.report.Evaluations))
		useful = append(useful, float64(r.report.Iterations)/float64(r.report.Evaluations))
	}
	for _, r := range runs {
		in.tr.add(r.spans...)
	}
	m["grid.read_s"] = median(bySpan[spanRead])
	m["grid.write_s"] = median(bySpan[spanWrite])
	m["core.repartition_s"] = median(bySpan[spanRepartition])
	m["core.reconstruct_s"] = median(bySpan[spanReconstruct])
	m["core.varfield_s"] = median(phases["varfield.build"])
	m["core.extract_s"] = median(phases["rung.extract"])
	m["core.allocate_s"] = median(phases["rung.allocate"])
	m["core.loss_s"] = median(phases["rung.loss"])
	m["core.rung_evals"] = median(evals)
	m["core.useful_ratio"] = median(useful)
	var residual []float64
	for _, o := range operations(all, spanBatch) {
		residual = append(residual, ms(o.residual))
	}
	m["residual_ms"] = mean(residual)
	m["load.attempted"] = float64(len(runs))

	// Single-thread baseline: the same core call at Workers: 1 must produce
	// the reference result byte for byte.
	f, err := os.Open(in.in)
	if err != nil {
		return nil, err
	}
	g, err := grid.ReadCSV(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	rp, err := core.Repartition(g, core.Options{Threshold: in.cfg.theta, Schedule: core.ScheduleGeometric, Workers: 1})
	if err != nil {
		return nil, err
	}
	m["core.workers1_s"] = time.Since(start).Seconds()
	if m["core.repartition_s"] > 0 {
		m["core.speedup"] = m["core.workers1_s"] / m["core.repartition_s"]
	}
	in.check(pipelineRun{workers: 1, result: resultDigest(rp), ifl: rp.IFL}, ref, t)
	return m, nil
}

func (in *batchInstance) close(t *tally) error {
	var err error
	for _, p := range []string{in.in, in.out} {
		if rerr := os.Remove(p); rerr != nil && !os.IsNotExist(rerr) && err == nil {
			err = rerr
		}
	}
	return err
}

// resultDigest fingerprints a run's partition, features and IFL.
func resultDigest(rp *core.Repartitioned) string {
	d := newDigest()
	for gi, cg := range rp.Partition.Groups {
		d.int(cg.RBeg)
		d.int(cg.REnd)
		d.int(cg.CBeg)
		d.int(cg.CEnd)
		d.bool(cg.Null)
		var fv []float64
		if gi < len(rp.Features) {
			fv = rp.Features[gi]
		}
		d.int(len(fv))
		for _, v := range fv {
			d.float(v)
		}
	}
	d.float(rp.IFL)
	return d.sum()
}

func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// createFile writes path through body and reports the Close error a deferred
// Close would drop.
func createFile(path string, body func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = body(f)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("closing %s: %w", path, cerr)
	}
	return err
}
