package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"spatialrepart/internal/experiments"
)

func TestBenchReportPopulated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_repartition.json")
	if err := runBench(path, tinyConfig()); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatalf("bench JSON does not parse: %v", err)
	}
	if bf.Version == "" || bf.GOMAXPROCS <= 0 || bf.Timestamp == "" {
		t.Errorf("bench header not populated: %+v", bf)
	}
	want := len(benchDatasets) * 2 // workers 1 and all-cores
	if len(bf.Entries) != want {
		t.Fatalf("entries = %d, want %d", len(bf.Entries), want)
	}
	for _, e := range bf.Entries {
		if e.WallNS <= 0 || e.Report == nil {
			t.Fatalf("entry %s/w=%d not populated", e.Dataset, e.Workers)
		}
		if e.Report.TotalNS <= 0 || e.Report.Evaluations == 0 {
			t.Errorf("entry %s/w=%d report empty: %+v", e.Dataset, e.Workers, e.Report)
		}
		for _, phase := range []string{"varfield.build", "rung.eval", "rung.extract", "rung.allocate", "rung.loss"} {
			if e.Report.Phases[phase].Count == 0 {
				t.Errorf("entry %s/w=%d missing phase %s", e.Dataset, e.Workers, phase)
			}
		}
		// Each entry's phases describe its own run only: one rung.eval span
		// per evaluation, with nothing carried over from earlier entries.
		if got, want := e.Report.Phases["rung.eval"].Count, int64(e.Report.Evaluations); got != want {
			t.Errorf("entry %s/w=%d: %d rung.eval spans for %d evaluations", e.Dataset, e.Workers, got, want)
		}
	}
	// Sequential and all-cores runs of the same dataset find the same answer.
	for _, name := range benchDatasets {
		var seq, par *benchEntry
		for i := range bf.Entries {
			e := &bf.Entries[i]
			if e.Dataset != name {
				continue
			}
			if e.Workers == 1 {
				seq = e
			} else {
				par = e
			}
		}
		if seq == nil || par == nil {
			t.Fatalf("dataset %s missing a workers variant", name)
		}
		if seq.Report.IFL != par.Report.IFL || seq.Report.Groups != par.Report.Groups ||
			seq.Report.Iterations != par.Report.Iterations {
			t.Errorf("dataset %s: sequential and parallel runs disagree", name)
		}
	}
}

func TestExperimentsReportCollector(t *testing.T) {
	cfg := tinyConfig()
	cfg.Collector = &experiments.Collector{}
	if err := run("fig5", cfg); err != nil {
		t.Fatal(err)
	}
	s := cfg.Collector.Summary(cfg)
	if len(s.Runs) == 0 {
		t.Fatal("collector recorded no runs")
	}
	if s.TotalRepartitionNS <= 0 || s.TotalEvaluations < s.TotalIterations || s.TotalIterations == 0 {
		t.Errorf("summary aggregates wrong: %+v", s)
	}
	for _, r := range s.Runs {
		if r.Report == nil || len(r.Report.Phases) == 0 {
			t.Errorf("run %s/θ=%v has no report phases", r.Dataset, r.Theta)
		}
	}
	path := filepath.Join(t.TempDir(), "report.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Collector.WriteJSON(f, cfg); err != nil {
		t.Fatal(err)
	}
	f.Close()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var parsed experiments.Summary
	if err := json.Unmarshal(b, &parsed); err != nil {
		t.Fatalf("summary JSON does not parse: %v", err)
	}
	if len(parsed.Runs) != len(s.Runs) {
		t.Errorf("round-trip lost runs: %d vs %d", len(parsed.Runs), len(s.Runs))
	}
}
