package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"spatialrepart/internal/core"
	"spatialrepart/internal/datagen"
	"spatialrepart/internal/experiments"
	"spatialrepart/internal/obs"
)

// benchRegistry backs the -metrics-addr endpoint (pprof, expvar, /metrics).
// Benchmark entries do not record into it: each run report must describe
// exactly one run, so every entry gets a private observer.
var benchRegistry = obs.NewRegistry()

// benchRows/benchCols fix the benchmark grid so BENCH_repartition.json files
// from different machines measure the same work.
const (
	benchRows = 48
	benchCols = 48
)

// benchDatasets are the synthetic grids the benchmark sweeps: one
// multivariate and one univariate generator.
var benchDatasets = []string{"taxi-multi", "earnings-uni"}

// benchEntry is one benchmark measurement: a dataset × threshold × workers
// cell with its wall time and the full instrumented run report.
type benchEntry struct {
	Dataset string          `json:"dataset"`
	Theta   float64         `json:"theta"`
	Workers int             `json:"workers"` // requested; 0 = all cores
	WallNS  int64           `json:"wall_ns"`
	Report  *core.RunReport `json:"report"`
}

// benchFile is the schema of BENCH_repartition.json.
type benchFile struct {
	Version    string       `json:"version"`
	Timestamp  string       `json:"timestamp"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Rows       int          `json:"rows"`
	Cols       int          `json:"cols"`
	Seed       int64        `json:"seed"`
	Entries    []benchEntry `json:"entries"`
}

// benchmark runs the instrumented repartition benchmark: every bench dataset
// at a fixed grid size, sequential and all-cores, geometric schedule.
func benchmark(cfg experiments.Config) (*benchFile, error) {
	bf := &benchFile{
		Version:    obs.Version(),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Rows:       benchRows,
		Cols:       benchCols,
		Seed:       cfg.Seed,
	}
	theta := 0.1
	for _, name := range benchDatasets {
		d := datagen.ByName(name, cfg.Seed, benchRows, benchCols)
		if d == nil {
			return nil, fmt.Errorf("bench: unknown dataset %q", name)
		}
		for _, workers := range []int{1, 0} {
			start := time.Now()
			_, report, err := core.RepartitionWithReport(d.Grid, core.Options{
				Threshold: theta,
				Schedule:  core.ScheduleGeometric,
				Workers:   workers,
			})
			if err != nil {
				return nil, fmt.Errorf("bench %s workers=%d: %w", name, workers, err)
			}
			bf.Entries = append(bf.Entries, benchEntry{
				Dataset: name,
				Theta:   theta,
				Workers: workers,
				WallNS:  time.Since(start).Nanoseconds(),
				Report:  report,
			})
		}
	}
	return bf, nil
}

// runBench executes the benchmark and writes its JSON report to path.
func runBench(path string, cfg experiments.Config) error {
	bf, err := benchmark(cfg)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(bf)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
