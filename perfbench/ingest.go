package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"spatialrepart/internal/datagen"
	"spatialrepart/internal/grid"
	"spatialrepart/internal/obs"
	"spatialrepart/internal/stream"
	"spatialrepart/internal/wal"
)

// ingestConfig sizes the ingest workload: a single-node stream restored from
// a checkpoint of a dense preload, a write-ahead log with fsync on every
// append (the repart default), one open-loop producer and one open-loop
// reader.
type ingestConfig struct {
	rows, cols int
	preload    int     // records folded into the checkpoint
	feed       int     // distinct live-feed records, cycled
	addRate    float64 // producer rate, records per second
	k          int     // MinRecordsBetweenChecks
	rate       float64 // reader rate, reads per second
	theta      float64
}

// ingestRate is the producer's fixed rate. A closed-loop producer runs as
// fast as fsync allows, which on a 2-vCPU virtual machine sharing its disk
// moved between 3.5k and 6.6k records/s from run to run, and every
// per-record figure moved with it; at a fixed rate each run does the same
// work. The stream sustains 2000 records/s there with room to spare.
const ingestRate = 2000

// producerTick is how often the open-loop producer wakes up to send the
// records that fell due.
const producerTick = 5 * time.Millisecond

// ingestK makes a staleness check fall due every 1.5 s at ingestRate. With
// K = 0 every read would recompute and no read rate is sustainable.
const ingestK = 3000

// feedSeedOffset separates the live feed's generator seed, drawn from the
// run's seed, from the dataset seed of the preload.
const feedSeedOffset = 1_000_003

func ingestConfigFor(quick bool) ingestConfig {
	if quick {
		return ingestConfig{rows: 32, cols: 32, preload: 20_000, feed: 5_000, addRate: 500, k: 200, rate: 20, theta: 0.1}
	}
	return ingestConfig{rows: 256, cols: 256, preload: 1_000_000, feed: 200_000, addRate: ingestRate, k: ingestK, rate: 20, theta: 0.1}
}

func (c ingestConfig) key(seed int64) string {
	return fmt.Sprintf("taxi-records-%d/seed=%d+feed-%d/seed=%d", c.preload, datasetSeed, c.feed, seed+feedSeedOffset)
}

var ingestWorkload = &workload{
	name: "ingest",
	params: func(quick bool) map[string]any {
		c := ingestConfigFor(quick)
		return map[string]any{"grid": fmt.Sprintf("%dx%d taxi stream", c.rows, c.cols), "preload": c.preload,
			"feed": c.feed, "theta": c.theta, "k": c.k, "sync": "always", "producer_rate": c.addRate,
			"reader_rate_rps": c.rate, "connections": 1, "mix": "70% /cell, 20% /view?groups=false, 10% /view"}
	},
	inputs: func(seed int64, quick bool) (string, string) {
		c := ingestConfigFor(quick)
		_, _, _, _, digest := ingestInputs(seed, c)
		return c.key(seed), digest
	},
	setup: setupIngest,
}

func ingestInputs(seed int64, c ingestConfig) (pre, feed []grid.Record, b grid.Bounds, attrs []grid.Attribute, digest string) {
	pre, b, attrs = datagen.TaxiRecords(datasetSeed, c.preload)
	feed, _, _ = datagen.TaxiRecords(seed+feedSeedOffset, c.feed)
	d := newDigest()
	recordsDigest(d, pre)
	recordsDigest(d, feed)
	return pre, feed, b, attrs, d.sum()
}

// walDirs numbers the WAL directories of one process, so every instance
// gets a fresh one.
var walDirs atomic.Int64

type ingestInstance struct {
	cfg         ingestConfig
	seed        int64
	key, digest string
	feed        []grid.Record
	dir         string
	wlog        *wal.Log
	s           *stream.Repartitioner
	observers   []*obs.Observer // the WAL's and the stream's (traced only)
	stack       *httpStack
	rd          *reader
	tr          *recorder
	pre         int // records accepted before the measured phase
	acked       int // records acknowledged by Add in the measured phase
}

func setupIngest(o opts, tr *recorder, t *tally) (instance, error) {
	c := ingestConfigFor(o.quick)
	pre, feed, b, attrs, digest := ingestInputs(o.seed, c)
	in := &ingestInstance{cfg: c, seed: o.seed, key: c.key(o.seed), digest: digest, feed: feed, tr: tr}

	// The dense preload reaches the served stream the way a restart does:
	// through a checkpoint.
	base, err := stream.New(b, c.rows, c.cols, attrs, streamOptions(c.theta, 0, nil))
	if err != nil {
		return nil, err
	}
	for _, r := range pre {
		if err := base.Add(r); err != nil {
			return nil, err
		}
	}
	var ckpt bytes.Buffer
	if err := base.Checkpoint(&ckpt); err != nil {
		return nil, err
	}

	var walObs, streamObs *obs.Observer
	if tr != nil {
		walObs, streamObs = obs.New(), obs.New()
		in.observers = []*obs.Observer{walObs, streamObs}
	}
	in.dir = filepath.Join(o.workDir(), fmt.Sprintf("ingest-wal-%d-%d", os.Getpid(), walDirs.Add(1)))
	if err := os.RemoveAll(in.dir); err != nil {
		return nil, err
	}
	in.wlog, err = wal.Open(in.dir, wal.Options{SyncEvery: 1, Stamp: walStamp(c), Obs: walObs})
	if err != nil {
		return nil, err
	}
	opts := streamOptions(c.theta, c.k, streamObs)
	opts.WAL = in.wlog
	if in.s, err = stream.New(b, c.rows, c.cols, attrs, opts); err != nil {
		in.close(t)
		return nil, err
	}
	if err := in.s.Restore(&ckpt); err != nil {
		in.close(t)
		return nil, err
	}
	if n, err := in.s.ReplayWAL(); err != nil || n != 0 {
		in.close(t)
		return nil, fmt.Errorf("replaying a fresh WAL: %d records, %v", n, err)
	}
	if _, err := in.s.Current(); err != nil {
		in.close(t)
		return nil, err
	}
	if in.stack, err = serveStream(in.s, tr); err != nil {
		in.close(t)
		return nil, err
	}
	in.rd = newReader(in.stack.url, 1)
	for _, res := range in.rd.run([]readReq{{class: classPoint}, {class: classSummary}, {class: classView}}) {
		t.attempted++
		if res.err != nil || res.status != 200 {
			t.fail("warm-up %s: status %d, %v", res.req.path(), res.status, res.err)
		} else if err := checkRead(res.req, res.body, in.geometry()); err != nil {
			t.fail("warm-up %s: %v", res.req.path(), err)
		}
	}
	in.rd.tr = tr
	return in, nil
}

func walStamp(c ingestConfig) string {
	return fmt.Sprintf("perfbench ingest rows=%d cols=%d", c.rows, c.cols)
}

func (in *ingestInstance) inputs() (string, string) { return in.key, in.digest }

func (in *ingestInstance) geometry() geometry {
	return geometry{rows: in.cfg.rows, cols: in.cfg.cols, theta: in.cfg.theta}
}

func (in *ingestInstance) measure(d time.Duration, t *tally) (phase, error) {
	st0 := in.s.Stats()
	if st0.StaleRecords != 0 {
		t.warn("served view misses %d records before the phase", st0.StaleRecords)
	}
	in.pre = st0.Accepted
	// The producer is open loop: record i is due at i/addRate and each Add is
	// timed from its due time. ackNS[i] is when record i was acknowledged.
	n := max(1, int(in.cfg.addRate*d.Seconds()))
	ackNS := make([]atomic.Int64, n)
	var acked atomic.Int64
	var staleMu sync.Mutex
	var stale []float64
	var start time.Time
	in.rd.after = func(res *readResult) {
		st := in.s.Stats()
		age := 0.0
		if j := st.Accepted - st.StaleRecords - in.pre; j >= 0 && int64(j) < acked.Load() {
			age = durMS(res.done.Sub(start.Add(time.Duration(ackNS[j].Load()))))
		}
		staleMu.Lock()
		stale = append(stale, age)
		staleMu.Unlock()
	}
	sched := readSchedule(rand.New(rand.NewSource(in.seed)), in.cfg.rate, d, in.cfg.rows, in.cfg.cols)
	ref0, rec0 := in.s.Stats().Refreshes, st0.Recomputes
	win := startObsWindow(in.observers...)
	attempted0, failed0 := t.attempted, t.failed

	addLat := make([]float64, 0, n) // ms from due time
	addSvc := make([]float64, 0, n) // ms inside Add
	var addBusy time.Duration
	var addErr error
	use := startUsage()
	start = time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			due := start.Add(time.Duration(float64(i) / in.cfg.addRate * float64(time.Second)))
			if wait := time.Until(due); wait > 0 {
				// Sleep in ticks: the records due within one tick go out
				// back to back, so waking the producer costs the same
				// however its Adds are spread over the tick.
				time.Sleep(wait + producerTick - 1 - (wait+producerTick-1)%producerTick)
			}
			if late := time.Since(due); late > maxLate {
				addErr = fmt.Errorf("producer %v behind schedule", late.Round(time.Millisecond))
				return
			}
			var tc obs.TraceContext
			var s0 int64
			traced := in.tr != nil && i%64 == 0
			if traced {
				tc, s0 = in.tr.child(obs.TraceContext{})
			}
			t0 := time.Now()
			err := in.s.Add(in.feed[i%len(in.feed)])
			done := time.Now()
			if traced {
				in.tr.add(span{trace: tc.TraceID, id: tc.SpanID, name: spanAdd, start: s0, end: in.tr.now()})
			}
			if err != nil {
				addErr = err // the log is poisoned: every later Add fails too
				return
			}
			ackNS[i].Store(int64(done.Sub(start)))
			acked.Store(int64(i + 1))
			addLat = append(addLat, durMS(done.Sub(due)))
			addSvc = append(addSvc, durMS(done.Sub(t0)))
			addBusy += done.Sub(t0)
		}
	}()
	results := in.rd.run(sched)
	wg.Wait()
	in.acked = int(acked.Load())
	ph := phase{detail: map[string]float64{}, cost: use.finish(), ops: n}
	readPhase(results, in.geometry(), t, ph.detail)
	t.attempted += int64(n)
	if addErr != nil {
		t.failed += int64(n - in.acked)
		t.fail("Add of record %d of %d: %v", in.acked+1, n, addErr)
	}
	st1 := in.s.Stats()
	if got, want := st1.Accepted-in.pre, in.acked-(st1.Dropped-st0.Dropped); got != want {
		t.fail("Stats().Accepted grew by %d, %d records were acked in bounds", got, want)
	}
	ph.detail["add_p50_ms"] = median(addLat)
	ph.detail["add_p99_ms"] = quantile(addLat, 0.99)
	ph.detail["add_busy_share"] = addBusy.Seconds() / d.Seconds()
	ph.detail["acked"] = float64(in.acked)
	ph.detail["staleness_n"] = float64(len(stale))
	ph.detail["staleness_p50_ms"] = median(stale)
	ph.detail["staleness_p90_ms"] = quantile(stale, 0.9)
	ph.detail["recomputes"] = float64(st1.Recomputes - rec0)
	ph.detail["refreshes"] = float64(st1.Refreshes - ref0)
	if in.tr == nil {
		return ph, nil
	}
	m := map[string]float64{}
	readLayers(operations(in.tr.snapshot(), spanRequest), m)
	refreshLayers(m, st1.Refreshes-ref0, st1.Recomputes-rec0)
	dl := win.finish()
	dl.coreLayers(m)
	m["stream.add_p50_ms"] = median(addSvc)
	m["stream.add_p99_ms"] = quantile(addSvc, 0.99)
	m["stream.add_busy_s"] = addBusy.Seconds()
	appends, fsyncs := dl.counter("wal.appended"), dl.histN["wal.fsync_ns"]
	m["wal.appends"] = float64(appends)
	m["wal.fsyncs"] = float64(fsyncs)
	m["wal.fsync_busy_s"] = dl.histSum["wal.fsync_ns"] / 1e9
	if fsyncs > 0 {
		m["wal.records_per_fsync"] = float64(appends) / float64(fsyncs)
	}
	m["load.late_p99_ms"] = ph.detail["late_p99_ms"]
	m["load.attempted"] = float64(t.attempted - attempted0)
	m["load.failed"] = float64(t.failed - failed0)
	ph.layers = m
	return ph, nil
}

// close stops the server, closes the log, and checks that the log holds
// every acknowledged record, in order, before removing its directory.
func (in *ingestInstance) close(t *tally) error {
	var err error
	if in.rd != nil {
		in.rd.close()
	}
	if in.stack != nil {
		err = in.stack.close()
	}
	if in.wlog != nil {
		if cerr := in.wlog.Close(); cerr != nil && err == nil {
			err = cerr
		}
		if cerr := in.checkWAL(t); cerr != nil && err == nil {
			err = cerr
		}
	}
	if rerr := os.RemoveAll(in.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// checkWAL reopens the log and replays it: every acknowledged record must be
// there, numbered from 1, holding the feed record it acknowledged.
func (in *ingestInstance) checkWAL(t *tally) error {
	l, err := wal.Open(in.dir, wal.Options{SyncEvery: 1, Stamp: walStamp(in.cfg)})
	if err != nil {
		return err
	}
	n := 0
	rerr := l.Replay(0, func(seq uint64, payload []byte) error {
		n++
		if seq != uint64(n) {
			return fmt.Errorf("sequence %d at position %d", seq, n)
		}
		rec, err := wal.DecodeRecord(payload)
		if err != nil {
			return err
		}
		want := in.feed[(n-1)%len(in.feed)]
		if rec.Lat != want.Lat || rec.Lon != want.Lon || !equalFloats(rec.Values, want.Values) {
			return fmt.Errorf("record %d differs from the one acknowledged", seq)
		}
		return nil
	})
	if cerr := l.Close(); rerr == nil && cerr != nil && cerr != wal.ErrClosed {
		rerr = cerr
	}
	t.attempted++
	switch {
	case rerr != nil:
		t.fail("WAL replay: %v", rerr)
	case n != in.acked:
		t.fail("WAL holds %d records, %d were acknowledged", n, in.acked)
	}
	return nil
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
