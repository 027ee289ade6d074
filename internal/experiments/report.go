package experiments

import (
	"encoding/json"
	"io"
	"sync"

	"spatialrepart/internal/core"
)

// RepartitionRun is one instrumented re-partitioning performed while an
// experiment suite ran: which dataset, which threshold, and the full
// core.RunReport (per-phase timings, trajectory, iteration counts).
type RepartitionRun struct {
	Dataset string          `json:"dataset"`
	Theta   float64         `json:"theta"`
	Report  *core.RunReport `json:"report"`
}

// Summary is the experiments lab's machine-readable run report: every
// re-partitioning the suite performed, plus the aggregate cost. Baseline and
// model-training work is not included — this tracks the framework itself.
type Summary struct {
	Seed    int64            `json:"seed"`
	Workers int              `json:"workers"`
	Runs    []RepartitionRun `json:"runs"`
	// TotalRepartitionNS sums the TotalNS of every recorded run.
	TotalRepartitionNS int64 `json:"total_repartition_ns"`
	// TotalIterations and TotalEvaluations aggregate the search effort; rungs
	// are never evaluated speculatively, so the two are equal.
	TotalIterations  int `json:"total_iterations"`
	TotalEvaluations int `json:"total_evaluations"`
}

// Collector accumulates RepartitionRuns across experiment runners. Attach
// one via Config.Collector; a nil *Collector discards everything, so
// recording sites never need a guard. Safe for concurrent use.
type Collector struct {
	mu   sync.Mutex
	runs []RepartitionRun
}

// Record stores one run (no-op on a nil collector or nil report).
func (c *Collector) Record(dataset string, theta float64, report *core.RunReport) {
	if c == nil || report == nil {
		return
	}
	c.mu.Lock()
	c.runs = append(c.runs, RepartitionRun{Dataset: dataset, Theta: theta, Report: report})
	c.mu.Unlock()
}

// Summary assembles the collected runs into a report.
func (c *Collector) Summary(cfg Config) Summary {
	s := Summary{Seed: cfg.Seed, Workers: cfg.Workers}
	if c == nil {
		return s
	}
	c.mu.Lock()
	s.Runs = append([]RepartitionRun(nil), c.runs...)
	c.mu.Unlock()
	for _, r := range s.Runs {
		s.TotalRepartitionNS += r.Report.TotalNS
		s.TotalIterations += r.Report.Iterations
		s.TotalEvaluations += r.Report.Evaluations
	}
	return s
}

// WriteJSON writes the summary as indented JSON.
func (c *Collector) WriteJSON(w io.Writer, cfg Config) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c.Summary(cfg))
}
