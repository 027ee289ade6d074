package main

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"spatialrepart"
	"spatialrepart/internal/cluster"
	"spatialrepart/internal/grid"
	"spatialrepart/internal/stream"
	"spatialrepart/internal/wal"
)

// streamConfig carries the parsed flags of the streaming ingest mode
// (-stream-records): raw point records are folded into a stream.Repartitioner
// whose aggregate state survives restarts via -checkpoint.
type streamConfig struct {
	records         string // raw records CSV (lat,lon,v1,…,vp)
	attrsSpec       string // attribute spec, e.g. "count:sum:int,price:avg,kind:avg:cat"
	rows, cols      int
	bbox            string
	threshold       float64
	schedule        string
	workers         int
	checkpoint      string // checkpoint file: restored at start if present, written at exit
	checkpointEvery int    // additionally checkpoint every n accepted records (0 = final only)
	shard           string // "i/n": serve row band i of an n-shard cluster (see -cluster)

	// walDir, when non-empty, makes ingest durable: every accepted record is
	// appended to a segmented write-ahead log in this directory before it is
	// applied, and replayed on restart (after the checkpoint restore, when
	// one exists). walSync is "always", "every=N", or "interval=DUR";
	// walSegmentBytes sets the rotation size (0 = default).
	walDir          string
	walSync         string
	walSegmentBytes int64

	outputs
	reportOut string
	stats     bool
	obsv      *spatialrepart.Observer

	// serveAddr, when non-empty, keeps the process alive after ingest,
	// serving the current view over HTTP (internal/server) until stop.
	serveAddr    string
	drainTimeout time.Duration
	logger       *slog.Logger      // defaults to a stderr text logger
	serveReady   func(addr string) // test hook: receives the bound address
	serveStop    <-chan struct{}   // test hook: nil means SIGTERM/SIGINT
}

// parseStreamAttrs parses the -stream-attrs spec: comma-separated attributes,
// each "name:agg[:int][:cat]" with agg ∈ {sum, avg, average}.
func parseStreamAttrs(spec string) ([]grid.Attribute, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("-stream-attrs is required (e.g. \"count:sum:int,price:avg\")")
	}
	var attrs []grid.Attribute
	for _, field := range strings.Split(spec, ",") {
		parts := strings.Split(strings.TrimSpace(field), ":")
		if len(parts) < 2 || parts[0] == "" {
			return nil, fmt.Errorf("attribute %q: want name:sum|avg[:int][:cat]", field)
		}
		a := grid.Attribute{Name: parts[0]}
		switch parts[1] {
		case "sum":
			a.Agg = grid.Sum
		case "avg", "average":
			a.Agg = grid.Average
		default:
			return nil, fmt.Errorf("attribute %q: unknown aggregation %q", field, parts[1])
		}
		for _, flagPart := range parts[2:] {
			switch flagPart {
			case "int":
				a.Integer = true
			case "cat":
				a.Categorical = true
			default:
				return nil, fmt.Errorf("attribute %q: unknown flag %q", field, flagPart)
			}
		}
		attrs = append(attrs, a)
	}
	return attrs, nil
}

// parseWALSync parses the -wal-sync policy into wal.Options fields.
func parseWALSync(policy string, o *wal.Options) error {
	switch {
	case policy == "" || policy == "always":
		o.SyncEvery = 1
	case strings.HasPrefix(policy, "every="):
		n, err := strconv.Atoi(strings.TrimPrefix(policy, "every="))
		if err != nil || n < 1 {
			return fmt.Errorf("-wal-sync %q: want every=N with N >= 1", policy)
		}
		o.SyncEvery = n
	case strings.HasPrefix(policy, "interval="):
		d, err := time.ParseDuration(strings.TrimPrefix(policy, "interval="))
		if err != nil || d <= 0 {
			return fmt.Errorf("-wal-sync %q: want interval=DURATION (e.g. interval=50ms)", policy)
		}
		// Interval-driven fsync with a large batch cap: the interval is the
		// durability bound, the cap merely stops unbounded buffering.
		o.SyncEvery = 1 << 20
		o.SyncInterval = d
	default:
		return fmt.Errorf("-wal-sync %q: want always, every=N, or interval=DURATION", policy)
	}
	return nil
}

// walStamp derives the directory-identity stamp: the grid geometry plus the
// shard spec. Two shard workers pointed at one WAL directory — or one worker
// whose geometry silently changed — fail fast at Open instead of replaying
// another band's records into the wrong grid.
func walStamp(cfg streamConfig) string {
	shard := cfg.shard
	if shard == "" {
		shard = "-"
	}
	return fmt.Sprintf("rows=%d cols=%d bounds=%s attrs=%s shard=%s",
		cfg.rows, cfg.cols, cfg.bbox, cfg.attrsSpec, shard)
}

// runStream ingests raw records into a streaming repartitioner — restoring a
// prior checkpoint first when one exists, then replaying the WAL suffix —
// and writes the served partition through the same output writers as the
// batch mode.
func runStream(cfg streamConfig) error {
	attrs, err := parseStreamAttrs(cfg.attrsSpec)
	if err != nil {
		return err
	}
	bounds, err := parseBounds(cfg.bbox)
	if err != nil {
		return err
	}
	if cfg.walDir == "" && (cfg.walSync != "" && cfg.walSync != "always" || cfg.walSegmentBytes != 0) {
		return fmt.Errorf("-wal-sync/-wal-segment-bytes require -wal")
	}
	schedule, err := parseSchedule(cfg.schedule)
	if err != nil {
		return err
	}
	opts := stream.Options{
		Threshold: cfg.threshold,
		Schedule:  schedule,
		Workers:   cfg.workers,
		Obs:       cfg.obsv,
	}
	var wlog *wal.Log
	if cfg.walDir != "" {
		wopts := wal.Options{
			SegmentBytes: cfg.walSegmentBytes,
			Stamp:        walStamp(cfg),
			Obs:          cfg.obsv,
		}
		if err := parseWALSync(cfg.walSync, &wopts); err != nil {
			return err
		}
		wlog, err = wal.Open(cfg.walDir, wopts)
		if err != nil {
			return fmt.Errorf("opening wal %s: %w", cfg.walDir, err)
		}
		defer wlog.Close()
		opts.WAL = wlog
	}
	// In shard-worker mode the stream covers only this worker's row band of
	// the global grid; records outside the band are dropped at ingest (the
	// cluster's ingest fan-out sends every worker the full feed, and each
	// keeps its slice). accept re-positions a record into the band-local
	// frame via the shared routing plan, so the worker's cells land on
	// exactly the global cell centers the coordinator stitches by.
	var s *stream.Repartitioner
	accept := func(rec grid.Record) (grid.Record, bool) { return rec, true }
	if cfg.shard != "" {
		index, count, serr := parseShardSpec(cfg.shard)
		if serr != nil {
			return serr
		}
		plan, perr := cluster.NewPlan(cfg.rows, cfg.cols, bounds, count)
		if perr != nil {
			return perr
		}
		s, err = cluster.NewShard(plan, index, attrs, opts)
		accept = func(rec grid.Record) (grid.Record, bool) {
			shard, local, ok := plan.Route(rec)
			if !ok || shard != index {
				return grid.Record{}, false
			}
			return local, true
		}
	} else {
		s, err = stream.New(bounds, cfg.rows, cfg.cols, attrs, opts)
	}
	if err != nil {
		return err
	}

	logger := cfg.logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}

	restored := false
	if cfg.checkpoint != "" {
		f, err := os.Open(cfg.checkpoint)
		switch {
		case err == nil:
			rerr := s.Restore(f)
			if cerr := f.Close(); rerr == nil {
				rerr = cerr
			}
			if rerr != nil {
				return fmt.Errorf("restoring %s: %w", cfg.checkpoint, rerr)
			}
			restored = true
		case os.IsNotExist(err):
			// First run: nothing to restore.
		default:
			return err
		}
	}
	replayed := 0
	if wlog != nil {
		// Replay the suffix the checkpoint does not cover (everything, on a
		// run with no checkpoint): records acked by a previous process that
		// died before checkpointing come back, exactly once.
		replayed, err = s.ReplayWAL()
		if err != nil {
			return err
		}
		if replayed > 0 {
			logger.Info("wal replayed", "dir", cfg.walDir, "records", replayed)
		}
	}

	f, err := os.Open(cfg.records)
	if err != nil {
		return err
	}
	defer f.Close()
	sinceCheckpoint := 0
	if err := grid.ScanRecordsCSV(f, len(attrs), func(rec grid.Record) error {
		rec, ok := accept(rec)
		if !ok {
			return nil
		}
		if err := s.Add(rec); err != nil {
			return err
		}
		sinceCheckpoint++
		if cfg.checkpoint != "" && cfg.checkpointEvery > 0 && sinceCheckpoint >= cfg.checkpointEvery {
			sinceCheckpoint = 0
			// A failed periodic checkpoint must not abort a healthy ingest:
			// the failure is recorded (Stats.CheckpointFailures,
			// LastCheckpointErr — surfaced by /stats) and logged, and the
			// next interval retries. The final checkpoint below still fails
			// the run hard.
			if cerr := checkpointAndTruncate(s, wlog, cfg.checkpoint); cerr != nil {
				logger.Warn("periodic checkpoint failed", "path", cfg.checkpoint, "err", cerr)
			}
			return nil
		}
		return nil
	}); err != nil {
		return err
	}

	v, err := s.Current()
	if err != nil {
		return err
	}
	if cfg.checkpoint != "" {
		if err := checkpointAndTruncate(s, wlog, cfg.checkpoint); err != nil {
			return err
		}
	}
	if cfg.stats {
		st := s.Stats()
		fmt.Fprintf(os.Stderr, "stream: accepted=%d dropped=%d recomputes=%d refreshes=%d failures=%d restored=%t wal-replayed=%d\n",
			st.Accepted, st.Dropped, st.Recomputes, st.Refreshes, st.RecomputeFailures, restored, replayed)
		fmt.Fprintf(os.Stderr, "cell-groups: %d (%d non-null), IFL=%.4f, generation=%d, degraded=%t\n",
			v.NumGroups(), v.ValidGroups(), v.IFL, v.Generation, v.Degraded)
	}
	if cfg.reportOut != "" {
		if err := createFile(cfg.reportOut, func(w io.Writer) error {
			if err := s.WriteReport(w); err != nil {
				return fmt.Errorf("writing stream report: %w", err)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if err := writeOutputs(v.Repartitioned, cfg.outputs, cfg.bbox); err != nil {
		return err
	}
	if cfg.serveAddr == "" {
		return nil
	}
	stop := cfg.serveStop
	if stop == nil {
		stop = signalChannel()
	}
	return serveView(s, cfg.serveAddr, cfg.drainTimeout, cfg.obsv, logger, cfg.serveReady, stop)
}

// checkpointAndTruncate writes the stream state to path crash-consistently
// via atomicWrite — after a crash at ANY instant the file holds either the
// previous checkpoint or the new one, never a torn mix — records the outcome
// in the stream's durability stats, and, once the new checkpoint is durable
// (data fsynced, rename fsynced), truncates the WAL through exactly the
// sequence the checkpoint embeds. The order is load-bearing: truncating
// before the rename lands could leave a crash window with neither the
// checkpoint nor the WAL holding the records.
func checkpointAndTruncate(s *stream.Repartitioner, wlog *wal.Log, path string) error {
	var seq uint64
	err := atomicWrite(path, func(w io.Writer) error {
		var cerr error
		seq, cerr = s.CheckpointSeq(w)
		return cerr
	})
	s.RecordCheckpointResult(err)
	if err != nil {
		return fmt.Errorf("writing checkpoint: %w", err)
	}
	if wlog != nil {
		// A reclamation failure loses nothing — the WAL only ever holds MORE
		// than a restart needs, and replay stays exactly-once by sequence —
		// so it must not fail the run; the next checkpoint retries it.
		wlog.TruncateThrough(seq) //spatialvet:ignore errdrop deliberate: truncation is best-effort reclamation, retried at the next checkpoint
	}
	return nil
}

// atomicWrite replaces path with the bytes produced by write, surviving a
// crash at any point: the content goes to an O_EXCL temp file in the same
// directory, is fsynced to make the BYTES durable, renamed over path to make
// the SWITCH atomic, and the parent directory is fsynced to make the rename
// itself durable. Skipping the first fsync would let the rename land before
// the data (a zero-length or torn file after power loss); skipping the last
// would let a crash forget the rename ever happened.
func atomicWrite(path string, write func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	fail := func(werr error) error {
		tmp.Close()        //spatialvet:ignore errdrop best-effort cleanup of a failed write; the original error is the one reported
		os.Remove(tmpName) //spatialvet:ignore errdrop best-effort cleanup of a failed write; the original error is the one reported
		return werr
	}
	if err := write(tmp); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName) //spatialvet:ignore errdrop best-effort cleanup of a failed write; the Close error is the one reported
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName) //spatialvet:ignore errdrop best-effort cleanup of a failed rename; the Rename error is the one reported
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making a just-performed rename durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}
