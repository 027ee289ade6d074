// Command paperbench regenerates the paper's tables and figures from the
// synthetic dataset suite. Each experiment prints the same rows/series the
// paper reports; absolute numbers differ (different hardware, Go instead of
// Python, synthetic data), but the shapes — who wins, by what rough factor,
// where the thresholds bite — are the reproduction target.
//
// Usage:
//
//	paperbench -exp fig5        # cell reduction (also covers fig6 timing)
//	paperbench -exp fig7        # regression/kriging training time+memory (fig8)
//	paperbench -exp fig9        # clustering/classification time+memory (fig10)
//	paperbench -exp table2      # regression & kriging prediction errors
//	paperbench -exp table3      # classification weighted F1
//	paperbench -exp table4      # clustering correctness
//	paperbench -exp table5      # homogeneous re-partitioning IFL
//	paperbench -exp ablation    # exact vs geometric schedule
//	paperbench -exp all
//
// Scale: set REPRO_SCALE=paper for the paper's grid sizes (slow) or
// REPRO_SCALE=quick for a smoke test; the default is laptop-scale.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"

	"spatialrepart/internal/experiments"
	"spatialrepart/internal/obs"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: fig5|fig6|fig7|fig8|fig9|fig10|table2|table3|table4|table5|ablation|all")
	seed := flag.Int64("seed", 0, "override the dataset seed (0 keeps the default)")
	csvDir := flag.String("csv", "", "also write each experiment's rows as CSV into this directory")
	workers := flag.Int("workers", 0, "goroutines per re-partitioning call (0 = all cores, 1 = sequential; results are identical either way)")
	reportOut := flag.String("report", "", "write a JSON summary of every re-partitioning the experiments performed")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/vars, /debug/traces and /debug/pprof on this address while running")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()

	if *version {
		fmt.Println("paperbench", obs.Version())
		return
	}

	cfg := experiments.DefaultConfig()
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.Workers = *workers

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	logger.Info("paperbench starting", "version", obs.Version(), "exp", *exp,
		"seed", cfg.Seed, "workers", cfg.Workers, "scale", os.Getenv("REPRO_SCALE"),
		"model_size", cfg.ModelSize.Name, "thresholds", fmt.Sprint(cfg.Thresholds))

	if *metricsAddr != "" {
		_, addr, err := obs.ServeObserver(*metricsAddr, obs.New())
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(1)
		}
		logger.Info("metrics endpoint up", "addr", addr)
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(1)
		}
		csvOut = *csvDir
	}
	if *reportOut != "" {
		cfg.Collector = &experiments.Collector{}
	}
	if err := run(*exp, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}
	if *reportOut != "" {
		f, err := os.Create(*reportOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(1)
		}
		err = cfg.Collector.WriteJSON(f, cfg)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(1)
		}
		logger.Info("run report written", "path", *reportOut)
	}
}

// csvOut, when non-empty, is the directory experiment CSVs are written to.
var csvOut string

// writeCSV writes one experiment's CSV file when -csv is set.
func writeCSV(name string, write func(w *os.File) error) error {
	if csvOut == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(csvOut, name))
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func run(exp string, cfg experiments.Config) error {
	runners := map[string]func(experiments.Config) error{
		"fig5": runCellReduction, "fig6": runCellReduction,
		"fig7": runRegressionCosts, "fig8": runRegressionCosts,
		"fig9": runClusteringCosts, "fig10": runClusteringCosts,
		"table2":   runTable2,
		"table3":   runTable3,
		"table4":   runTable4,
		"table5":   runTable5,
		"ablation": runAblation,
	}
	if exp == "all" {
		for _, name := range []string{"fig5", "fig7", "fig9", "table2", "table3", "table4", "table5", "ablation"} {
			fmt.Printf("\n===== %s =====\n", name)
			if err := runners[name](cfg); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}
	r, ok := runners[exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return r(cfg)
}

func runCellReduction(cfg experiments.Config) error {
	rows, err := experiments.CellReduction(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Figs. 5 & 6 — spatial cell reduction and re-partitioning time")
	if err := experiments.PrintCellReduction(os.Stdout, rows); err != nil {
		return err
	}
	return writeCSV("fig5_fig6.csv", func(w *os.File) error {
		return experiments.WriteCellReductionCSV(w, rows)
	})
}

func runRegressionCosts(cfg experiments.Config) error {
	rows, err := experiments.RegressionTrainingCosts(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Figs. 7 & 8 — regression/kriging training time and memory")
	if err := experiments.PrintTrainCosts(os.Stdout, rows); err != nil {
		return err
	}
	return writeCSV("fig7_fig8.csv", func(w *os.File) error {
		return experiments.WriteTrainCostsCSV(w, rows)
	})
}

func runClusteringCosts(cfg experiments.Config) error {
	rows, err := experiments.ClusteringClassificationCosts(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Figs. 9 & 10 — clustering/classification training time and memory")
	if err := experiments.PrintTrainCosts(os.Stdout, rows); err != nil {
		return err
	}
	return writeCSV("fig9_fig10.csv", func(w *os.File) error {
		return experiments.WriteTrainCostsCSV(w, rows)
	})
}

func runTable2(cfg experiments.Config) error {
	rows, err := experiments.Table2(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Table II — prediction errors of spatial regression and kriging")
	if err := experiments.PrintTable2(os.Stdout, rows); err != nil {
		return err
	}
	fmt.Println("\nTable II summary — re-partitioning vs original and vs baselines (RMSE)")
	if err := experiments.PrintTable2Summary(os.Stdout, experiments.SummarizeTable2(rows)); err != nil {
		return err
	}
	return writeCSV("table2.csv", func(w *os.File) error {
		return experiments.WriteTable2CSV(w, rows)
	})
}

func runTable3(cfg experiments.Config) error {
	rows, err := experiments.Table3(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Table III — weighted F1 of classification models")
	if err := experiments.PrintTable3(os.Stdout, rows); err != nil {
		return err
	}
	return writeCSV("table3.csv", func(w *os.File) error {
		return experiments.WriteTable3CSV(w, rows)
	})
}

func runTable4(cfg experiments.Config) error {
	rows, err := experiments.Table4(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Table IV — clustering correctness (%)")
	if err := experiments.PrintTable4(os.Stdout, rows); err != nil {
		return err
	}
	return writeCSV("table4.csv", func(w *os.File) error {
		return experiments.WriteTable4CSV(w, rows)
	})
}

func runTable5(cfg experiments.Config) error {
	rows, err := experiments.Table5(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Table V — information loss of homogeneous re-partitioning (merge factor 2)")
	if err := experiments.PrintTable5(os.Stdout, rows); err != nil {
		return err
	}
	return writeCSV("table5.csv", func(w *os.File) error {
		return experiments.WriteTable5CSV(w, rows)
	})
}

func runAblation(cfg experiments.Config) error {
	rows, err := experiments.ScheduleAblation(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Ablation — exact vs geometric variation schedule")
	if err := experiments.PrintAblation(os.Stdout, rows); err != nil {
		return err
	}
	alloc, err := experiments.AllocationAblation(cfg)
	if err != nil {
		return err
	}
	fmt.Println("\nAblation — Algorithm 2 allocation: best-of-mean-and-mode vs mean-only")
	if err := experiments.PrintAllocationAblation(os.Stdout, alloc); err != nil {
		return err
	}
	extr, err := experiments.ExtractorAblation(cfg)
	if err != nil {
		return err
	}
	fmt.Println("\nAblation — extractor: greedy rectangle growing vs quadtree splitting")
	if err := experiments.PrintExtractorAblation(os.Stdout, extr); err != nil {
		return err
	}
	return nil
}
