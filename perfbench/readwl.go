package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"spatialrepart/internal/cluster"
	"spatialrepart/internal/obs"
	"spatialrepart/internal/stream"
)

// readConfig sizes a read workload.
type readConfig struct {
	rows, cols int
	records    int     // preloaded taxi records
	rate       float64 // reads per second, open loop
	conns      int
	shards     int // 0 = single node
	theta      float64
}

func (c readConfig) params() map[string]any {
	return map[string]any{
		"grid": fmt.Sprintf("%dx%d taxi stream", c.rows, c.cols), "records": c.records, "theta": c.theta,
		"rate_rps": c.rate, "connections": c.conns, "shards": c.shards,
		"mix": "70% /cell, 20% /view?groups=false, 10% /view", "min_records_between_checks": 0,
	}
}

func readConfigFor(quick bool, shards int, rate float64) readConfig {
	c := readConfig{rows: 256, cols: 256, records: 1_000_000, rate: rate, conns: 2, shards: shards, theta: 0.1}
	if quick {
		c.rows, c.cols, c.records = 32, 32, 20_000
	}
	return c
}

// serveReadRate and clusterReadRate are the workloads' fixed read rates,
// which the serving stack sustains on 2 vCPUs without a growing backlog.
const (
	serveReadRate   = 40
	clusterReadRate = 10
)

var serveReadWorkload = &workload{
	name:   "serve-read",
	params: func(quick bool) map[string]any { return readConfigFor(quick, 0, serveReadRate).params() },
	inputs: func(seed int64, quick bool) (string, string) {
		return readInputs(readConfigFor(quick, 0, serveReadRate))
	},
	setup: func(o opts, tr *recorder, t *tally) (instance, error) {
		return setupRead(o, readConfigFor(o.quick, 0, serveReadRate), tr, t)
	},
}

var clusterReadWorkload = &workload{
	name:   "cluster-read",
	params: func(quick bool) map[string]any { return readConfigFor(quick, 2, clusterReadRate).params() },
	inputs: func(seed int64, quick bool) (string, string) {
		return readInputs(readConfigFor(quick, 2, clusterReadRate))
	},
	setup: func(o opts, tr *recorder, t *tally) (instance, error) {
		return setupRead(o, readConfigFor(o.quick, 2, clusterReadRate), tr, t)
	},
}

// readInputs fingerprints the read workloads' dataset, the same for every
// seed.
func readInputs(c readConfig) (string, string) {
	_, _, _, digest := taxiInput(datasetSeed, c.records)
	return c.key(), digest
}

func (c readConfig) key() string {
	return fmt.Sprintf("taxi-records-%d/seed=%d", c.records, datasetSeed)
}

// readInstance is a serving stack under an open-loop reader: one stream
// behind a server, or one stream and server per shard behind a coordinator.
type readInstance struct {
	cfg         readConfig
	seed        int64
	key, digest string
	streams     []*stream.Repartitioner
	observers   []*obs.Observer // fresh per traced instance: streams, then the coordinator
	stacks      []*httpStack
	rd          *reader
	tr          *recorder
}

func setupRead(o opts, c readConfig, tr *recorder, t *tally) (instance, error) {
	recs, b, attrs, digest := taxiInput(datasetSeed, c.records)
	in := &readInstance{cfg: c, seed: o.seed, key: c.key(), digest: digest, tr: tr}
	newObs := func() *obs.Observer {
		if tr == nil {
			return nil
		}
		ob := obs.New()
		in.observers = append(in.observers, ob)
		return ob
	}
	var plan cluster.Plan
	if c.shards == 0 {
		s, err := stream.New(b, c.rows, c.cols, attrs, streamOptions(c.theta, 0, newObs()))
		if err != nil {
			return nil, err
		}
		for _, r := range recs {
			if err := s.Add(r); err != nil {
				return nil, err
			}
		}
		in.streams = []*stream.Repartitioner{s}
	} else {
		var err error
		if plan, err = cluster.NewPlan(c.rows, c.cols, b, c.shards); err != nil {
			return nil, err
		}
		for i := 0; i < c.shards; i++ {
			s, err := cluster.NewShard(plan, i, attrs, streamOptions(c.theta, 0, newObs()))
			if err != nil {
				return nil, err
			}
			in.streams = append(in.streams, s)
		}
		for _, r := range recs {
			if shard, local, ok := plan.Route(r); ok {
				if err := in.streams[shard].Add(local); err != nil {
					return nil, err
				}
			}
		}
	}
	var urls []string
	for _, s := range in.streams {
		if _, err := s.Current(); err != nil {
			return nil, err
		}
		st, err := serveStream(s, tr)
		if err != nil {
			in.close(t)
			return nil, err
		}
		in.stacks = append(in.stacks, st)
		urls = append(urls, st.url)
	}
	front := urls[0]
	if c.shards > 0 {
		coord, err := cluster.New(cluster.Config{Plan: plan, Backends: urls, Obs: newObs()})
		if err != nil {
			in.close(t)
			return nil, err
		}
		var h http.Handler = coord.Handler()
		if tr != nil {
			h = tr.handler(spanCoordinator, h)
		}
		st, err := serveHandler(h, coord.Shutdown)
		if err != nil {
			in.close(t)
			return nil, err
		}
		in.stacks = append(in.stacks, st)
		front = st.url
	}
	in.rd = newReader(front, c.conns)
	// Warm-up: one read of each class opens the connections and proves the
	// stack answers; the cluster's stitched view is checked against the
	// coordinator-free reference.
	warm := []readReq{{class: classPoint}, {class: classSummary}, {class: classView}, {class: classPoint, row: c.rows - 1, col: c.cols - 1}}
	for _, res := range in.rd.run(warm) {
		t.attempted++
		if res.err != nil || res.status != http.StatusOK {
			t.fail("warm-up %s: status %d, %v", res.req.path(), res.status, res.err)
		} else if err := checkRead(res.req, res.body, in.geometry()); err != nil {
			t.fail("warm-up %s: %v", res.req.path(), err)
		}
	}
	if c.shards > 0 {
		t.attempted++
		if err := in.checkStitched(plan, front); err != nil {
			t.fail("stitched view: %v", err)
		}
	}
	in.rd.tr = tr
	return in, nil
}

func (in *readInstance) inputs() (string, string) { return in.key, in.digest }

func (in *readInstance) geometry() geometry {
	return geometry{rows: in.cfg.rows, cols: in.cfg.cols, theta: in.cfg.theta}
}

// checkStitched compares the coordinator's /view with
// cluster.ViewFromStreams, generation numbers aside (each read of a shard
// installs a new generation).
func (in *readInstance) checkStitched(plan cluster.Plan, front string) error {
	resp, err := in.rd.cl.Get(front + "/view")
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	var got cluster.ViewBody
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	want, err := cluster.ViewFromStreams(plan, in.streams)
	if err != nil {
		return err
	}
	for _, v := range []*cluster.ViewBody{&got, &want} {
		for i := range v.Shards {
			v.Shards[i].Generation = 0
		}
	}
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	if !bytes.Equal(gb, wb) {
		return fmt.Errorf("coordinator view (%d bytes) differs from ViewFromStreams (%d bytes)", len(gb), len(wb))
	}
	return nil
}

func (in *readInstance) statsSum() (refreshes, recomputes int) {
	for _, s := range in.streams {
		st := s.Stats()
		refreshes += st.Refreshes
		recomputes += st.Recomputes
	}
	return refreshes, recomputes
}

func (in *readInstance) measure(d time.Duration, t *tally) (phase, error) {
	sched := readSchedule(rand.New(rand.NewSource(in.seed)), in.cfg.rate, d, in.cfg.rows, in.cfg.cols)
	ref0, rec0 := in.statsSum()
	win := startObsWindow(in.observers...)
	attempted0, failed0 := t.attempted, t.failed
	use := startUsage()
	results := in.rd.run(sched)
	ph := phase{detail: map[string]float64{}, cost: use.finish(), ops: len(results)}
	readPhase(results, in.geometry(), t, ph.detail)
	if in.tr == nil {
		return ph, nil
	}
	m := map[string]float64{}
	readLayers(operations(in.tr.snapshot(), spanRequest), m)
	ref1, rec1 := in.statsSum()
	refreshLayers(m, ref1-ref0, rec1-rec0)
	dl := win.finish()
	dl.coreLayers(m)
	m["cluster.retries"] = float64(dl.counter("cluster.backend.retries"))
	m["cluster.hedges"] = float64(dl.counter("cluster.backend.hedges"))
	m["load.late_p99_ms"] = ph.detail["late_p99_ms"]
	m["load.attempted"] = float64(t.attempted - attempted0)
	m["load.failed"] = float64(t.failed - failed0)
	ph.layers = m
	return ph, nil
}

// refreshLayers records a phase's staleness checks: how many kept the
// partition (refresh) and how many re-partitioned (recompute).
func refreshLayers(m map[string]float64, refreshes, recomputes int) {
	m["stream.refreshes"] = float64(refreshes)
	m["stream.recomputes"] = float64(recomputes)
	if checks := refreshes + recomputes; checks > 0 {
		m["stream.refresh_ratio"] = float64(refreshes) / float64(checks)
	}
}

func (in *readInstance) close(t *tally) error {
	if in.rd != nil {
		in.rd.close()
	}
	var err error
	for i := len(in.stacks) - 1; i >= 0; i-- {
		if cerr := in.stacks[i].close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	in.stacks = nil
	return err
}
