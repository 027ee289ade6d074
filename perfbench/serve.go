package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"spatialrepart/internal/core"
	"spatialrepart/internal/datagen"
	"spatialrepart/internal/grid"
	"spatialrepart/internal/obs"
	"spatialrepart/internal/server"
	"spatialrepart/internal/stream"
)

// The read mix: 70 % point (/cell at a uniformly random cell), 20 % summary
// (/view?groups=false), 10 % view (/view). Every block of ten consecutive
// reads holds exactly this mix, in a seeded order, so a run's mean does not
// drift with the draw.
const (
	classPoint = iota
	classSummary
	classView
)

var (
	classNames = []string{"point", "summary", "view"}
	mixPerTen  = []int{7, 2, 1}
)

// readReq is one scheduled read.
type readReq struct {
	class    int
	row, col int // point reads
	due      time.Duration
}

func (q readReq) path() string {
	switch q.class {
	case classPoint:
		return "/cell?row=" + strconv.Itoa(q.row) + "&col=" + strconv.Itoa(q.col)
	case classSummary:
		return "/view?groups=false"
	}
	return "/view"
}

// readSchedule is the open-loop schedule of one phase: rate×d reads, evenly
// spaced from time zero.
func readSchedule(rng *rand.Rand, rate float64, d time.Duration, rows, cols int) []readReq {
	n := int(rate * d.Seconds())
	if n < 1 {
		n = 1
	}
	var block []int
	for c, k := range mixPerTen {
		for i := 0; i < k; i++ {
			block = append(block, c)
		}
	}
	reqs := make([]readReq, 0, n)
	for len(reqs) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, c := range block {
			if len(reqs) == n {
				break
			}
			q := readReq{class: c, due: time.Duration(float64(len(reqs)) / rate * float64(time.Second))}
			if c == classPoint {
				q.row, q.col = rng.Intn(rows), rng.Intn(cols)
			}
			reqs = append(reqs, q)
		}
	}
	return reqs
}

// readResult is the client's record of one read.
type readResult struct {
	req     readReq
	late    time.Duration // send time − due time
	latency time.Duration // completion − due time
	status  int
	err     error
	body    []byte // kept for the correctness check (sampled for views)
	bytes   int64
	done    time.Time
}

// maxLate is how far behind schedule a read may be sent; later reads are not
// sent and count as failed, so an overloaded run still ends.
const maxLate = 10 * time.Second

// keepViewEvery is the sampling period of /view bodies kept for checking
// after the phase (the first view is always kept). Kept bodies stay live
// until then, so the sample is small.
const keepViewEvery = 32

// reader is the open-loop read generator of one phase.
type reader struct {
	base  string
	conns int
	cl    *http.Client
	tr    *recorder
	// after, when set, runs on the connection's goroutine right after a
	// read completes (the ingest workload samples staleness there).
	after func(res *readResult)
}

func newReader(base string, conns int) *reader {
	transport := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
	}
	return &reader{base: base, conns: conns, cl: &http.Client{Transport: transport, Timeout: 30 * time.Second}}
}

func (rd *reader) close() { rd.cl.CloseIdleConnections() }

// run sends the schedule over rd.conns connections, each read timed from its
// due time, and returns one result per scheduled read.
func (rd *reader) run(sched []readReq) []readResult {
	results := make([]readResult, len(sched))
	var next atomic.Int64
	var views atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < rd.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				q := sched[i]
				due := start.Add(q.due)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				res := &results[i]
				res.req = q
				res.late = time.Since(due)
				if res.late > maxLate {
					res.err = fmt.Errorf("not sent: %v behind schedule", res.late.Round(time.Millisecond))
					continue
				}
				keep := true
				if q.class == classView {
					keep = (views.Add(1)-1)%keepViewEvery == 0
				}
				rd.do(res, keep)
				res.latency = res.done.Sub(due)
				if rd.after != nil && res.err == nil {
					rd.after(res)
				}
			}
		}()
	}
	wg.Wait()
	return results
}

// do performs one read, recording a load.request span when traced.
func (rd *reader) do(res *readResult, keep bool) {
	req, err := http.NewRequest(http.MethodGet, rd.base+res.req.path(), nil)
	if err != nil {
		res.err = err
		return
	}
	var tc obs.TraceContext
	var start int64
	if rd.tr != nil {
		tc, start = rd.tr.child(obs.TraceContext{})
		req.Header.Set("traceparent", tc.Traceparent())
	}
	resp, err := rd.cl.Do(req)
	if err != nil {
		res.err = err
		res.done = time.Now()
		return
	}
	if keep {
		res.body, err = io.ReadAll(resp.Body)
		res.bytes = int64(len(res.body))
	} else {
		res.bytes, err = io.Copy(io.Discard, resp.Body)
	}
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	res.done = time.Now()
	res.status = resp.StatusCode
	res.err = err
	if rd.tr != nil {
		rd.tr.add(span{trace: tc.TraceID, id: tc.SpanID, name: spanRequest, class: classNames[res.req.class],
			start: start, end: rd.tr.now(), bytes: res.bytes, status: resp.StatusCode})
	}
}

// readPhase condenses a phase's reads: every failure is recorded in t, the
// kept bodies are checked, and per-class latencies, the mix latency (Σ over
// classes of the class's share of the mix × its median) and generator
// lateness land in detail.
func readPhase(results []readResult, g geometry, t *tally, detail map[string]float64) {
	perClass := make([][]float64, len(classNames))
	var late []float64
	mix := 0.0
	for i := range results {
		r := &results[i]
		t.attempted++
		switch {
		case r.err != nil:
			t.fail("%s: %v", r.req.path(), r.err)
			continue
		case r.status != http.StatusOK:
			t.fail("%s: status %d", r.req.path(), r.status)
			continue
		}
		if r.body != nil {
			if err := checkRead(r.req, r.body, g); err != nil {
				t.fail("%s: %v", r.req.path(), err)
				continue
			}
		}
		perClass[r.req.class] = append(perClass[r.req.class], durMS(r.latency))
		late = append(late, durMS(r.late))
	}
	for c, cn := range classNames {
		xs := perClass[c]
		mix += float64(mixPerTen[c]) / 10 * median(xs)
		detail[cn+"_n"] = float64(len(xs))
		detail[cn+"_p50_ms"] = median(xs)
		for _, q := range []float64{0.99, 0.9} {
			if supports(len(xs), q) {
				detail[fmt.Sprintf("%s_p%d_ms", cn, int(q*100))] = quantile(xs, q)
			}
		}
	}
	detail["late_p50_ms"] = median(late)
	detail["late_p99_ms"] = quantile(late, 0.99)
	if growing(late) {
		t.warn("generator backlog grew: mean lateness %.1f ms in the last quarter, %.1f ms before",
			mean(late[3*len(late)/4:]), mean(late[:3*len(late)/4]))
		detail["backlog_growing"] = 1
	}
	detail["mix_ms"] = mix
}

// growing reports whether the generator fell behind for good: the last
// quarter of the phase ran late on average by more than 100 ms and by more
// than twice the first three quarters. Stalls that the reader recovers from
// raise every quarter alike.
func growing(late []float64) bool {
	if len(late) < 8 {
		return false
	}
	head, tail := mean(late[:3*len(late)/4]), mean(late[3*len(late)/4:])
	return tail > 100 && tail > 2*head
}

// geometry is what a response check needs to know about the served grid.
type geometry struct {
	rows, cols int
	theta      float64
}

// wireView decodes the fields of a /view body shared by the single-node and
// the stitched (cluster) responses.
type wireView struct {
	Degraded   bool    `json:"degraded"`
	Rows       int     `json:"rows"`
	Cols       int     `json:"cols"`
	Groups     int     `json:"groups"`
	IFL        float64 `json:"ifl"`
	CellGroups []struct {
		RowBegin int       `json:"row_begin"`
		RowEnd   int       `json:"row_end"`
		ColBegin int       `json:"col_begin"`
		ColEnd   int       `json:"col_end"`
		Cells    int       `json:"cells"`
		Null     bool      `json:"null"`
		Features []float64 `json:"features"`
	} `json:"cell_groups"`
}

// checkRead verifies one response body: it decodes; a /cell group contains
// its cell; a view is fresh, within θ, and its groups tile the grid exactly.
func checkRead(q readReq, body []byte, g geometry) error {
	if q.class == classPoint {
		var cb struct {
			Row   int              `json:"row"`
			Col   int              `json:"col"`
			Group server.GroupBody `json:"group"`
		}
		if err := json.Unmarshal(body, &cb); err != nil {
			return fmt.Errorf("decoding cell: %w", err)
		}
		gr := cb.Group
		if cb.Row != q.row || cb.Col != q.col || q.row < gr.RowBegin || q.row > gr.RowEnd || q.col < gr.ColBegin || q.col > gr.ColEnd {
			return fmt.Errorf("cell (%d,%d) answered with (%d,%d) in group rows %d..%d cols %d..%d",
				q.row, q.col, cb.Row, cb.Col, gr.RowBegin, gr.RowEnd, gr.ColBegin, gr.ColEnd)
		}
		if gr.Cells != (gr.RowEnd-gr.RowBegin+1)*(gr.ColEnd-gr.ColBegin+1) {
			return fmt.Errorf("group of cell (%d,%d) reports %d cells for its rectangle", q.row, q.col, gr.Cells)
		}
		return nil
	}
	var v wireView
	if err := json.Unmarshal(body, &v); err != nil {
		return fmt.Errorf("decoding view: %w", err)
	}
	switch {
	case v.Degraded:
		return fmt.Errorf("view is degraded")
	case v.Rows != g.rows || v.Cols != g.cols:
		return fmt.Errorf("view is %dx%d, want %dx%d", v.Rows, v.Cols, g.rows, g.cols)
	case v.IFL > g.theta || v.IFL < 0:
		return fmt.Errorf("view IFL %v outside [0, %v]", v.IFL, g.theta)
	case v.Groups < 1:
		return fmt.Errorf("view has %d groups", v.Groups)
	}
	if q.class == classSummary {
		if len(v.CellGroups) != 0 {
			return fmt.Errorf("summary lists %d groups", len(v.CellGroups))
		}
		return nil
	}
	if len(v.CellGroups) != v.Groups {
		return fmt.Errorf("view lists %d groups, reports %d", len(v.CellGroups), v.Groups)
	}
	covered := make([]bool, g.rows*g.cols)
	n := 0
	for _, cg := range v.CellGroups {
		if cg.RowBegin < 0 || cg.RowEnd >= g.rows || cg.ColBegin < 0 || cg.ColEnd >= g.cols ||
			cg.RowBegin > cg.RowEnd || cg.ColBegin > cg.ColEnd {
			return fmt.Errorf("group rows %d..%d cols %d..%d outside the grid", cg.RowBegin, cg.RowEnd, cg.ColBegin, cg.ColEnd)
		}
		if cg.Null == (len(cg.Features) > 0) {
			return fmt.Errorf("group at (%d,%d): null=%t with %d features", cg.RowBegin, cg.ColBegin, cg.Null, len(cg.Features))
		}
		for r := cg.RowBegin; r <= cg.RowEnd; r++ {
			for c := cg.ColBegin; c <= cg.ColEnd; c++ {
				if covered[r*g.cols+c] {
					return fmt.Errorf("cell (%d,%d) lies in two groups", r, c)
				}
				covered[r*g.cols+c] = true
				n++
			}
		}
	}
	if n != g.rows*g.cols {
		return fmt.Errorf("groups cover %d of %d cells", n, g.rows*g.cols)
	}
	return nil
}

// streamOptions is how repart -serve configures the stream (defaults, so
// MinRecordsBetweenChecks is 0: every read checks staleness); minRecords
// throttles the checks where a workload asks for it.
func streamOptions(theta float64, minRecords int, o *obs.Observer) stream.Options {
	return stream.Options{Threshold: theta, Schedule: core.ScheduleGeometric, MinRecordsBetweenChecks: minRecords, Obs: o}
}

// httpStack is one served handler on a loopback listener.
type httpStack struct {
	hs   *http.Server
	url  string
	stop func(ctx context.Context) error // drains the package's own server first
}

// serveHandler serves h the way server.Server.Serve and
// cluster.Coordinator.Serve do (obs.HardenedServer on a TCP listener), so a
// traced run can put the benchmark's wrapper around the handler.
func serveHandler(h http.Handler, drain func(ctx context.Context) error) (*httpStack, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := obs.HardenedServer(h)
	go func() { _ = hs.Serve(ln) }()
	return &httpStack{hs: hs, url: "http://" + ln.Addr().String(), stop: drain}, nil
}

func (h *httpStack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.stop(ctx)
	if serr := h.hs.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// serveStream puts a server.Server in front of a stream, wrapped in the
// benchmark's spans when tr is set.
func serveStream(s *stream.Repartitioner, tr *recorder) (*httpStack, error) {
	var src server.Source = s
	if tr != nil {
		src = tracedSource{Source: s, rec: tr}
	}
	srv, err := server.New(server.Config{Source: src})
	if err != nil {
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if tr != nil {
		h = tr.handler(spanServer, h)
	}
	return serveHandler(h, srv.Shutdown)
}

// datasetSeed generates every workload's dataset (cmd/datagen's default
// seed). The dataset is fixed so that runs on different seeds measure the
// same work: with a seed-drawn dataset the partition size alone moves by
// ±7 % (serve-read) to ±15 % (batch) from seed to seed. The run's seed draws
// the request stream instead: the read schedule, the cells read, and the
// ingest feed.
const datasetSeed = 42

// taxiInput generates the serving workloads' records.
func taxiInput(seed int64, n int) ([]grid.Record, grid.Bounds, []grid.Attribute, string) {
	recs, b, attrs := datagen.TaxiRecords(seed, n)
	d := newDigest()
	recordsDigest(d, recs)
	return recs, b, attrs, d.sum()
}
