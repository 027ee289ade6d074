package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"spatialrepart/internal/experiments"
)

func tinyConfig() experiments.Config {
	return experiments.Config{
		Seed:         3,
		Sizes:        []experiments.GridSize{{Name: "t", Rows: 10, Cols: 10}},
		ModelSize:    experiments.GridSize{Name: "t", Rows: 12, Cols: 12},
		Thresholds:   []float64{0.1},
		TestFraction: 0.2,
		Classes:      3,
		ClusterK:     3,
		SVRMaxTrain:  200,
		Repeats:      1,
	}
}

func TestRunFastExperiments(t *testing.T) {
	cfg := tinyConfig()
	for _, exp := range []string{"fig5", "fig6", "table5", "ablation"} {
		if err := run(exp, cfg); err != nil {
			t.Errorf("%s: %v", exp, err)
		}
	}
}

func TestRunTable4(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if err := run("table4", tinyConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("bogus", tinyConfig()); err == nil {
		t.Error("want unknown-experiment error")
	}
}

func TestCSVExport(t *testing.T) {
	dir := t.TempDir()
	csvOut = dir
	defer func() { csvOut = "" }()
	if err := run("fig5", tinyConfig()); err != nil {
		t.Fatal(err)
	}
	if err := run("table5", tinyConfig()); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig5_fig6.csv", "table5.csv"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(b) == 0 {
			t.Fatalf("%s is empty", name)
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
