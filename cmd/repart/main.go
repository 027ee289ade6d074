// Command repart re-partitions a spatial grid dataset stored as CSV (the
// format produced by Grid.WriteCSV / cmd/datagen) at a given information-loss
// threshold. It writes the reduced grid (every cell replaced by its group's
// representative value, §III-C), and optionally the cell→group map, the
// group adjacency list, the full partition as reloadable JSON, a GeoJSON
// FeatureCollection of the cell-groups, and an ASCII rendering.
//
// Usage:
//
//	repart -in grid.csv -threshold 0.05 -out reduced.csv \
//	       [-groups groups.csv] [-adjacency adj.csv] \
//	       [-partition partition.json] \
//	       [-geojson groups.geojson -bounds minLat,maxLat,minLon,maxLon] \
//	       [-schedule exact|geometric] [-workers n] [-render] [-stats] \
//	       [-report run.json] [-metrics-addr :8080] [-trace-out trace.json] \
//	       [-version]
//
// -schedule picks the ladder search (default geometric). exact climbs the
// variation ladder one rung at a time, as the paper describes, up to the
// first rung whose IFL exceeds -threshold. geometric brackets the whole
// ladder and narrows the bracket with a search steered by each probed
// rung's IFL, so it evaluates at most ⌈log₂(rungs+1)⌉ + 1 rungs. Both accept
// the same rung when IFL grows with the rung; where it does not, geometric
// may accept a coarser rung, still within the threshold.
//
// Streaming mode ingests raw point records (header + "lat,lon,v1,…,vp" rows)
// instead of a pre-aggregated grid, and can persist its aggregate state
// across runs via a crash-safe checkpoint file:
//
//	repart -stream-records points.csv -stream-attrs "count:sum:int,price:avg" \
//	       -stream-rows 32 -stream-cols 32 -bounds 40,41,-74,-73 \
//	       -threshold 0.05 [-checkpoint state.ckpt] [-checkpoint-every 10000] \
//	       [-wal waldir] [-wal-sync always|every=N|interval=DUR] \
//	       [-wal-segment-bytes n] \
//	       [-out reduced.csv] [-report stream.json] [...]
//
// Records are folded into cells exactly as a batch grid is built from them,
// so the outputs equal those of -in on that grid's CSV. A record outside
// -bounds (max edges included), or with a NaN coordinate, is dropped and
// counted; a record with a NaN or infinite value stops the ingest with an
// error.
//
// With -wal, every accepted record is appended to a segmented write-ahead
// log before it is applied, so a crash between checkpoints loses nothing:
// restart restores the checkpoint (if any) and replays the WAL suffix,
// exactly once by sequence. Each checkpoint truncates the log prefix it
// covers. Shard workers must use distinct WAL directories — the directory
// is stamped with the grid geometry and shard spec and cross-wiring fails
// fast at open.
//
// Serve mode (-serve, streaming only) keeps the process alive after ingest,
// exposing the current view over a load-shedding HTTP front end (/healthz,
// /readyz, /view, /group, /cell, /stats) until SIGTERM/SIGINT, then drains
// in-flight requests gracefully within -drain-timeout:
//
//	repart -stream-records points.csv ... -serve :8080 [-drain-timeout 10s]
//
// Cluster mode shards the grid into horizontal row bands served by
// independent worker processes and fronts them with a resilient coordinator
// (per-shard circuit breakers, retries, optional hedged reads, partial
// 200+Warning results when shards are down). Its only state is the last
// stitched /view, revalidated against every shard's ETag on each read, so a
// restarted coordinator just starts cold:
//
//	repart -stream-records points.csv ... -shard 0/2 -serve :8081 &
//	repart -stream-records points.csv ... -shard 1/2 -serve :8082 &
//	repart -cluster :8080 -shards http://localhost:8081,http://localhost:8082 \
//	       -stream-rows 32 -stream-cols 32 -bounds 40,41,-74,-73 [-hedge]
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strconv"
	"strings"

	"spatialrepart"
	"spatialrepart/internal/obs"
	"spatialrepart/internal/render"
)

func main() {
	in := flag.String("in", "", "input grid CSV (required)")
	out := flag.String("out", "", "output CSV for the reconstructed reduced grid")
	groupsOut := flag.String("groups", "", "output CSV for the cell-group map (group id, bounds, size)")
	adjOut := flag.String("adjacency", "", "output CSV for the group adjacency list")
	geoOut := flag.String("geojson", "", "output GeoJSON FeatureCollection of the cell-groups")
	partOut := flag.String("partition", "", "output JSON with the full partition + features (loadable via ReadRepartitionJSON)")
	reportOut := flag.String("report", "", "output JSON with the instrumented run report (per-phase timings, IFL trajectory)")
	threshold := flag.Float64("threshold", 0.05, "information-loss threshold θ ∈ [0,1]")
	schedule := flag.String("schedule", "geometric", "ladder search: exact (one rung at a time, as the paper) | geometric (IFL-guided bracketing, at most ⌈log₂(rungs+1)⌉+1 rungs)")
	workers := flag.Int("workers", 0, "goroutines for the variation field and each rung's allocate and loss sweeps (0 = all cores, 1 = sequential; results are identical)")
	stats := flag.Bool("stats", true, "print summary statistics to stderr")
	doRender := flag.Bool("render", false, "print an ASCII rendering of the partition to stdout")
	bbox := flag.String("bounds", "0,1,0,1", "geographic bounds for -geojson as minLat,maxLat,minLon,maxLon")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/vars, /debug/traces and /debug/pprof on this address while running")
	traceOut := flag.String("trace-out", "", "write recorded spans as Chrome trace-event JSON (loadable in Perfetto/chrome://tracing) at exit")
	version := flag.Bool("version", false, "print build information and exit")
	streamRecords := flag.String("stream-records", "", "streaming mode: ingest raw records CSV (lat,lon,v1,…,vp) instead of -in")
	streamAttrs := flag.String("stream-attrs", "", "streaming mode: attribute spec name:sum|avg[:int][:cat],…")
	streamRows := flag.Int("stream-rows", 32, "streaming mode: grid rows")
	streamCols := flag.Int("stream-cols", 32, "streaming mode: grid columns")
	checkpoint := flag.String("checkpoint", "", "streaming mode: state file — restored at start if present, written atomically at exit")
	checkpointEvery := flag.Int("checkpoint-every", 0, "streaming mode: additionally checkpoint every n ingested records (0 = final only)")
	walDir := flag.String("wal", "", "streaming mode: write-ahead-log directory — every accepted record is logged before it is applied, and replayed on restart (zero acked-record loss)")
	walSync := flag.String("wal-sync", "always", "WAL sync policy: always | every=N | interval=DURATION (durability lags by at most N-1 records or DURATION)")
	walSegmentBytes := flag.Int64("wal-segment-bytes", 0, "WAL segment rotation size in bytes (0 = default 4 MiB)")
	serveAddr := flag.String("serve", "", "streaming mode: after ingest, serve the current view over HTTP on this address until SIGTERM/SIGINT")
	drainTimeout := flag.Duration("drain-timeout", defaultDrainTimeout, "serve mode: graceful drain deadline on shutdown")
	shardSpec := flag.String("shard", "", "streaming mode: serve row band i of an n-shard cluster as \"i/n\" (geometry from -stream-rows/-stream-cols/-bounds)")
	clusterAddr := flag.String("cluster", "", "cluster mode: serve a coordinator on this address over the -shards backends (it keeps only the last stitched /view, revalidated against the shards' ETags on every read)")
	shardsList := flag.String("shards", "", "cluster mode: comma-separated shard base URLs, one per row band, in band order")
	hedge := flag.Bool("hedge", false, "cluster mode: hedge slow shard reads after the backend's observed p99 latency")
	flag.Parse()

	if *version {
		fmt.Println("repart", obs.Version())
		return
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	logger.Info("repart starting", "version", obs.Version(),
		"in", *in, "threshold", *threshold, "schedule", *schedule, "workers", *workers)

	var obsv *spatialrepart.Observer
	if *metricsAddr != "" || *traceOut != "" {
		obsv = spatialrepart.NewObserver()
	}
	if *metricsAddr != "" {
		_, addr, err := obs.ServeObserver(*metricsAddr, obsv)
		if err != nil {
			fmt.Fprintln(os.Stderr, "repart:", err)
			os.Exit(1)
		}
		logger.Info("metrics endpoint up", "addr", addr)
	}

	outs := outputs{
		out: *out, groupsOut: *groupsOut, adjOut: *adjOut, geoOut: *geoOut,
		partOut: *partOut, render: *doRender,
	}
	var err error
	if *clusterAddr != "" {
		var shards []string
		if *streamRecords != "" || *in != "" {
			err = fmt.Errorf("-cluster is a pure coordinator: it takes no -in/-stream-records (start shard workers separately with -shard)")
		} else if shards, err = parseShards(*shardsList); err == nil {
			err = runCluster(clusterConfig{
				addr: *clusterAddr, shards: shards,
				rows: *streamRows, cols: *streamCols, bbox: *bbox,
				hedge: *hedge, drainTimeout: *drainTimeout,
				obsv: obsv, logger: logger,
			})
		}
	} else if *shardsList != "" || *hedge {
		err = fmt.Errorf("-shards/-hedge require -cluster")
	} else if *streamRecords != "" {
		err = runStream(streamConfig{
			records: *streamRecords, attrsSpec: *streamAttrs,
			rows: *streamRows, cols: *streamCols, bbox: *bbox,
			threshold: *threshold, schedule: *schedule, workers: *workers,
			checkpoint: *checkpoint, checkpointEvery: *checkpointEvery, shard: *shardSpec,
			walDir: *walDir, walSync: *walSync, walSegmentBytes: *walSegmentBytes,
			outputs: outs, reportOut: *reportOut, stats: *stats, obsv: obsv,
			serveAddr: *serveAddr, drainTimeout: *drainTimeout, logger: logger,
		})
	} else if *shardSpec != "" {
		err = fmt.Errorf("-shard requires -stream-records (a shard worker is a streaming ingest over its row band)")
	} else if *checkpoint != "" || *checkpointEvery != 0 {
		err = fmt.Errorf("-checkpoint/-checkpoint-every require -stream-records")
	} else if *walDir != "" {
		err = fmt.Errorf("-wal requires -stream-records (the write-ahead log makes streaming ingest durable)")
	} else if *walSync != "always" || *walSegmentBytes != 0 {
		err = fmt.Errorf("-wal-sync/-wal-segment-bytes require -wal")
	} else if *serveAddr != "" {
		err = fmt.Errorf("-serve requires -stream-records (the served view comes from streaming ingest)")
	} else {
		err = run(runConfig{
			in: *in, outputs: outs, reportOut: *reportOut, threshold: *threshold,
			schedule: *schedule, workers: *workers, stats: *stats,
			bbox: *bbox, obsv: obsv,
		})
	}
	if *traceOut != "" {
		// Written even after a failed run: the flight recorder is often most
		// useful exactly when something went wrong.
		if werr := writeTraceOut(obsv, *traceOut); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "repart:", err)
		os.Exit(1)
	}
}

// writeTraceOut dumps the observer's flight recorder as Chrome trace-event
// JSON, the format Perfetto and chrome://tracing load directly.
func writeTraceOut(obsv *spatialrepart.Observer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obsv.Flight().WriteTrace(f); err != nil {
		f.Close() //spatialvet:ignore errdrop best-effort cleanup of a failed write; the WriteTrace error is the one reported
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	return f.Close()
}

// outputs names the files both modes write from the partition they serve.
type outputs struct {
	out, groupsOut, adjOut, geoOut, partOut string
	render                                  bool
}

// runConfig carries the parsed flags.
type runConfig struct {
	in string
	outputs
	reportOut string
	threshold float64
	schedule  string
	workers   int
	stats     bool
	bbox      string
	// obsv, when non-nil, receives the run's metrics (shared with the
	// -metrics-addr endpoint).
	obsv *spatialrepart.Observer
}

func run(cfg runConfig) error {
	if cfg.in == "" {
		return fmt.Errorf("-in is required")
	}
	f, err := os.Open(cfg.in)
	if err != nil {
		return err
	}
	defer f.Close()
	g, err := spatialrepart.ReadGridCSV(f)
	if err != nil {
		return err
	}

	schedule, err := parseSchedule(cfg.schedule)
	if err != nil {
		return err
	}
	opts := spatialrepart.Options{Threshold: cfg.threshold, Schedule: schedule, Workers: cfg.workers, Obs: cfg.obsv}

	var rp *spatialrepart.Repartitioned
	if cfg.reportOut != "" {
		var report *spatialrepart.RunReport
		rp, report, err = spatialrepart.RepartitionWithReport(g, opts)
		if err != nil {
			return err
		}
		if err := createFile(cfg.reportOut, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(report); err != nil {
				return fmt.Errorf("writing run report: %w", err)
			}
			return nil
		}); err != nil {
			return err
		}
	} else {
		rp, err = spatialrepart.Repartition(g, opts)
		if err != nil {
			return err
		}
	}
	if cfg.stats {
		fmt.Fprintf(os.Stderr, "input: %s\n", g)
		fmt.Fprintf(os.Stderr, "cell-groups: %d (%d non-null), IFL=%.4f, min-adjacent-variation=%.6f, iterations=%d\n",
			rp.NumGroups(), rp.ValidGroups(), rp.IFL, rp.MinAdjVariation, rp.Iterations)
	}
	return writeOutputs(rp, cfg.outputs, cfg.bbox)
}

// parseSchedule maps the -schedule flag to a ladder search.
func parseSchedule(name string) (spatialrepart.Schedule, error) {
	switch name {
	case "exact":
		return spatialrepart.ScheduleExact, nil
	case "geometric":
		return spatialrepart.ScheduleGeometric, nil
	}
	return 0, fmt.Errorf("unknown schedule %q", name)
}

// writeOutputs writes every requested output of rp, in either mode: the
// reduced grid, the groups, the adjacency list, the GeoJSON (bbox, the
// -bounds flag, is parsed only then), the partition JSON, and the render.
func writeOutputs(rp *spatialrepart.Repartitioned, o outputs, bbox string) error {
	if o.out != "" {
		if err := createFile(o.out, func(w io.Writer) error {
			if err := rp.ReconstructGrid().WriteCSV(w); err != nil {
				return fmt.Errorf("writing reduced grid: %w", err)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if o.groupsOut != "" {
		if err := writeGroups(o.groupsOut, rp); err != nil {
			return err
		}
	}
	if o.adjOut != "" {
		if err := writeAdjacency(o.adjOut, rp); err != nil {
			return err
		}
	}
	if o.geoOut != "" {
		b, err := parseBounds(bbox)
		if err != nil {
			return err
		}
		if err := createFile(o.geoOut, func(w io.Writer) error {
			if err := rp.WriteGeoJSON(w, b); err != nil {
				return fmt.Errorf("writing GeoJSON: %w", err)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if o.partOut != "" {
		if err := createFile(o.partOut, func(w io.Writer) error {
			if err := rp.WriteJSON(w); err != nil {
				return fmt.Errorf("writing partition JSON: %w", err)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if o.render {
		fmt.Print(render.PartitionBorders(rp.Partition))
	}
	return nil
}

// parseBounds parses "minLat,maxLat,minLon,maxLon".
func parseBounds(s string) (spatialrepart.Bounds, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return spatialrepart.Bounds{}, fmt.Errorf("bounds %q: want minLat,maxLat,minLon,maxLon", s)
	}
	vals := make([]float64, 4)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return spatialrepart.Bounds{}, fmt.Errorf("bounds %q: %w", s, err)
		}
		vals[i] = v
	}
	return spatialrepart.Bounds{MinLat: vals[0], MaxLat: vals[1], MinLon: vals[2], MaxLon: vals[3]}, nil
}

// createFile creates path, streams body into it, and propagates the
// Close error a deferred Close would drop: a written file's write-back
// failure (ENOSPC, EIO) often surfaces only at Close, and an output
// reported as written must actually have reached the filesystem.
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

func writeGroups(path string, rp *spatialrepart.Repartitioned) error {
	return createFile(path, func(out io.Writer) error {
		w := csv.NewWriter(out)
		if err := w.Write([]string{"group", "row_begin", "row_end", "col_begin", "col_end", "size", "null"}); err != nil {
			return err
		}
		for gi, cg := range rp.Partition.Groups {
			rec := []string{
				strconv.Itoa(gi),
				strconv.Itoa(cg.RBeg), strconv.Itoa(cg.REnd),
				strconv.Itoa(cg.CBeg), strconv.Itoa(cg.CEnd),
				strconv.Itoa(cg.Size()),
				strconv.FormatBool(cg.Null),
			}
			if err := w.Write(rec); err != nil {
				return err
			}
		}
		w.Flush()
		return w.Error()
	})
}

func writeAdjacency(path string, rp *spatialrepart.Repartitioned) error {
	return createFile(path, func(out io.Writer) error {
		w := csv.NewWriter(out)
		if err := w.Write([]string{"group", "neighbor"}); err != nil {
			return err
		}
		for gi, nbrs := range rp.Partition.AdjacencyList() {
			for _, nb := range nbrs {
				if err := w.Write([]string{strconv.Itoa(gi), strconv.Itoa(nb)}); err != nil {
					return err
				}
			}
		}
		w.Flush()
		return w.Error()
	})
}
