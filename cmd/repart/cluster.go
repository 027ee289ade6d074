package main

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"time"

	"spatialrepart"
	"spatialrepart/internal/cluster"
	"spatialrepart/internal/obs"
)

// clusterConfig carries the parsed flags of the coordinator mode (-cluster):
// a front door that routes and scatter-gathers over the shard workers named
// by -shards, keeping nothing but its last stitched view.
type clusterConfig struct {
	addr   string   // coordinator listen address
	shards []string // shard base URLs, one per row band, in band order
	rows   int      // global grid rows (must match the workers' -stream-rows)
	cols   int      // global grid columns
	bbox   string   // global bounds (must match the workers' -bounds)

	drainTimeout time.Duration
	obsv         *spatialrepart.Observer
	logger       *slog.Logger      // defaults to a stderr text logger
	ready        func(addr string) // test hook: receives the bound address
	stop         <-chan struct{}   // test hook: nil means SIGTERM/SIGINT
}

// parseShards splits the -shards list into backend base URLs.
func parseShards(spec string) ([]string, error) {
	var shards []string
	for _, s := range strings.Split(spec, ",") {
		if s = strings.TrimSpace(s); s != "" {
			shards = append(shards, s)
		}
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("-shards is required with -cluster (comma-separated shard base URLs)")
	}
	return shards, nil
}

// parseShardSpec parses the -shard worker spec "i/n" into (index, count).
func parseShardSpec(spec string) (index, count int, err error) {
	parts := strings.Split(spec, "/")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("-shard %q: want \"i/n\" (serve band i of an n-shard cluster)", spec)
	}
	index, err = strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return 0, 0, fmt.Errorf("-shard %q: %w", spec, err)
	}
	count, err = strconv.Atoi(strings.TrimSpace(parts[1]))
	if err != nil {
		return 0, 0, fmt.Errorf("-shard %q: %w", spec, err)
	}
	if count < 1 || index < 0 || index >= count {
		return 0, 0, fmt.Errorf("-shard %q: index must be in [0,%d)", spec, count)
	}
	return index, count, nil
}

// runCluster serves the resilient coordinator (internal/cluster) over the
// configured shard backends until stop fires, then drains gracefully within
// drainTimeout. The plan geometry must match the one the shard workers were
// started with — the coordinator routes by global cell, so a mismatch would
// silently misroute point queries.
func runCluster(cfg clusterConfig) error {
	bounds, err := parseBounds(cfg.bbox)
	if err != nil {
		return err
	}
	plan, err := cluster.NewPlan(cfg.rows, cfg.cols, bounds, len(cfg.shards))
	if err != nil {
		return err
	}
	coord, err := cluster.New(cluster.Config{
		Plan:     plan,
		Backends: cfg.shards,
		Obs:      cfg.obsv,
	})
	if err != nil {
		return err
	}
	logger := cfg.logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	drainTimeout := cfg.drainTimeout
	if drainTimeout <= 0 {
		drainTimeout = defaultDrainTimeout
	}
	sampler := obs.StartRuntimeSampler(cfg.obsv, obs.DefRuntimeSampleInterval, nil)
	defer sampler.Stop()
	bound, err := coord.Serve(cfg.addr)
	if err != nil {
		return err
	}
	logger.Info("serving cluster coordinator", "addr", bound,
		"shards", len(cfg.shards), "rows", cfg.rows, "cols", cfg.cols)
	if cfg.ready != nil {
		cfg.ready(bound)
	}
	stop := cfg.stop
	if stop == nil {
		stop = signalChannel()
	}
	<-stop

	logger.Info("coordinator drain started", "timeout", drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := coord.Shutdown(ctx); err != nil {
		return fmt.Errorf("coordinator drain: %w", err)
	}
	logger.Info("coordinator drain complete")
	return nil
}
