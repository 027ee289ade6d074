package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"spatialrepart/internal/breaker"
	"spatialrepart/internal/fault"
	"spatialrepart/internal/obs"
	"spatialrepart/internal/par"
	"spatialrepart/internal/server"
)

// The coordinator's shard-fetch policy (DESIGN.md §3.20). Its routes run on
// server.Envelope, whose limits are the server package's constants.
const (
	// shardTimeout bounds one shard attempt.
	shardTimeout = 2 * time.Second
	// retryMax is the number of additional attempts per shard fetch after
	// the first fails retryably (reads are idempotent GETs).
	retryMax = 2
	// failureThreshold consecutive failures open a backend's breaker.
	failureThreshold = 3
	// initialBackoff and maxBackoff bound the per-backend retry backoff.
	initialBackoff = 50 * time.Millisecond
	maxBackoff     = 5 * time.Second
	// jitterSeed seeds the backoff jitter: backend i draws from the stream
	// seeded jitterSeed+i+1.
	jitterSeed = 1
)

// Config parameterizes a Coordinator. Plan and Backends are required and
// must agree: Backends[i] is the base URL of the shard serving band i.
type Config struct {
	// Plan is the cluster's sharding geometry.
	Plan Plan
	// Backends are the shard base URLs ("http://host:port"), one per band.
	Backends []string

	// Client performs the shard requests (default: a dedicated client on a
	// cloned default transport, so Shutdown's CloseIdleConnections never
	// touches unrelated traffic).
	Client *http.Client

	// Obs, when non-nil, receives the coordinator metrics (per-backend
	// breaker gauges, retry counters, the envelope's admission and
	// RED series under cluster.*) and spans.
	Obs *obs.Observer
	// Fault, when non-nil, is consulted at "cluster.request" (after
	// admission) and "cluster.fetch" (before every shard attempt).
	Fault *fault.Injector
	// Clock substitutes the time source for deterministic chaos tests
	// (nil = real clock).
	Clock server.Clock
}

// Coordinator is the cluster's front door: the cluster routes mounted on the
// shards' own request envelope. Create with New, mount via Handler or run
// with Serve (both from the envelope), stop with Shutdown. Every response is
// assembled from, or revalidated against, live shard responses. The one
// piece of view state it keeps is the last stitched /view body, keyed by the
// shards' ETags and checked with a conditional scatter on every read; a
// restarted coordinator starts without it, so coordinators can be
// replicated freely. A /view reads the shards' full views; a
// /view?groups=false summary reads only their summaries.
type Coordinator struct {
	*server.Envelope
	plan     Plan
	backends []*backend
	client   *http.Client
	ownsClnt bool
	obs      *obs.Observer
	flt      *fault.Injector

	view atomic.Pointer[stitched] // the stored /view body, nil while none
}

// New validates cfg and returns a ready-to-mount Coordinator.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Plan.Bands) == 0 {
		return nil, fmt.Errorf("cluster: Config.Plan is required (see NewPlan)")
	}
	if len(cfg.Backends) != len(cfg.Plan.Bands) {
		return nil, fmt.Errorf("cluster: %d backends for %d bands", len(cfg.Backends), len(cfg.Plan.Bands))
	}
	for i, b := range cfg.Backends {
		u, err := url.Parse(b)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: backend %d: invalid base URL %q", i, b)
		}
	}
	env := server.NewEnvelope("cluster", cfg.Obs, cfg.Fault, cfg.Clock, nil)
	c := &Coordinator{
		Envelope: env,
		plan:     cfg.Plan,
		obs:      cfg.Obs,
		flt:      cfg.Fault,
	}
	c.client = cfg.Client
	if c.client == nil {
		c.client = &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
		c.ownsClnt = true
	}
	for i, base := range cfg.Backends {
		band := cfg.Plan.Bands[i]
		c.backends = append(c.backends, &backend{
			index:   i,
			base:    base,
			maxBody: shardBodyFloor + shardBodyPerCell*int64(band.Rows())*int64(cfg.Plan.Cols),
			brk:     breaker.New(failureThreshold, initialBackoff, maxBackoff, jitterSeed+int64(i)+1),
		})
	}
	env.Probe("/healthz", c.handleHealthz)
	env.Probe("/readyz", c.handleReadyz)
	env.Query("/view", c.handleView)
	env.Query("/stats", c.handleStats)
	env.Query("/cell", c.pointRead(func(row, col, shard int, g server.GroupBody) any {
		return CellBody{Row: row, Col: col, Shard: shard, Group: g}
	}))
	env.Query("/group", c.pointRead(func(_, _, shard int, g server.GroupBody) any {
		return GroupQueryBody{Shard: shard, Group: g}
	}))
	return c, nil
}

// Shutdown drains the coordinator's envelope gracefully within ctx's
// deadline (see server.Envelope.Shutdown), then releases the owned client's
// idle backend connections.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	err := c.Envelope.Shutdown(ctx)
	if c.ownsClnt {
		c.client.CloseIdleConnections()
	}
	return err
}

// ---- probe endpoints -------------------------------------------------------

// HealthBody is the coordinator /healthz response.
type HealthBody struct {
	Status   string `json:"status"`
	Shards   int    `json:"shards"`
	Draining bool   `json:"draining,omitempty"`
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) error {
	return server.WriteJSON(w, HealthBody{Status: "ok", Shards: len(c.backends), Draining: c.Draining()})
}

// ShardReady is one shard's entry in the cluster readiness body.
type ShardReady struct {
	Shard      int    `json:"shard"`
	Ready      bool   `json:"ready"`
	Reason     string `json:"reason,omitempty"`
	Breaker    string `json:"breaker"` // the COORDINATOR's breaker for this backend
	Generation int    `json:"generation"`
}

// ReadyBody is the coordinator /readyz response. The cluster is ready while
// at least one shard is — partial serving is the contract, so a single dead
// shard degrades readiness rather than revoking it; only a fully dark
// cluster turns the load balancer away.
type ReadyBody struct {
	Ready    bool         `json:"ready"`
	Reason   string       `json:"reason,omitempty"`
	Degraded bool         `json:"degraded"`
	Shards   []ShardReady `json:"shards"`
}

func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) error {
	out := ReadyBody{Shards: make([]ShardReady, len(c.backends))}
	n := len(c.backends)
	par.Ranges(n, n, n, func(_, lo, hi int) {
		for _, b := range c.backends[lo:hi] {
			out.Shards[b.index] = c.probe(r.Context(), b)
		}
	})
	readyCount := 0
	for _, sr := range out.Shards {
		if sr.Ready {
			readyCount++
		}
	}
	switch {
	case c.Draining():
		out.Ready, out.Reason = false, "draining"
	case readyCount == 0:
		out.Ready, out.Reason = false, "no shard ready"
	default:
		out.Ready = true
		out.Degraded = readyCount < len(c.backends)
	}
	w.Header().Set("Content-Type", "application/json")
	if !out.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	if err := json.NewEncoder(w).Encode(out); err != nil {
		return fmt.Errorf("cluster: encoding readiness: %w", err)
	}
	return nil
}

// probe asks backend b for its readiness. Probes bypass the breaker and
// retry loop on purpose: they are how the coordinator notices a shard came
// BACK, and they must stay cheap and honest while the fetch path is
// refusing.
func (c *Coordinator) probe(ctx context.Context, b *backend) ShardReady {
	sr := ShardReady{Shard: b.index}
	b.mu.Lock()
	sr.Breaker = b.brk.State().String()
	b.mu.Unlock()
	res, err := c.roundTrip(ctx, b, "/readyz", "")
	if err != nil {
		sr.Reason = "unreachable: " + err.Error()
		return sr
	}
	var body server.ReadyBody
	if jerr := json.Unmarshal(res.Body, &body); jerr != nil {
		sr.Reason = "bad readiness payload"
		return sr
	}
	sr.Ready = body.Ready
	sr.Reason = body.Reason
	sr.Generation = body.Gen
	return sr
}

// ---- scatter-gather endpoints ----------------------------------------------

// scatter fetches pq concurrently from the backends listed in shards (every
// backend when shards is nil), backend i with tags[i] in If-None-Match when
// tags is non-nil, and returns the raw results in backend order (nil error
// slot = success); the slots of backends not asked stay empty.
func (c *Coordinator) scatter(ctx context.Context, pq string, shards []int, tags []string) ([]fetchResult, []error) {
	if shards == nil {
		shards = make([]int, len(c.backends))
		for i := range shards {
			shards[i] = i
		}
	}
	results := make([]fetchResult, len(c.backends))
	errs := make([]error, len(c.backends))
	n := len(shards)
	par.Ranges(n, n, n, func(_, lo, hi int) {
		for _, i := range shards[lo:hi] {
			tag := ""
			if tags != nil {
				tag = tags[i]
			}
			results[i], errs[i] = c.fetch(ctx, c.backends[i], pq, tag)
		}
	})
	return results, errs
}

// degradedWarning stamps the stale-response Warning header (the same 110
// convention the shards use for degraded last-good views).
func degradedWarning(w http.ResponseWriter) {
	w.Header().Set("Warning", `110 - "partial or stale cluster response"`)
}

// stitched is one encoded cluster /view body and what a later read needs to
// serve it again: its degraded flag and the shard ETags it was stitched
// from, in band order. tags is nil unless every shard answered 200 with an
// ETag and none is missing; only such a body is stored.
type stitched struct {
	body     *server.StoredBody
	degraded bool
	tags     []string
}

// handleView serves the stitched global partition: GET /view, or the
// stitched summary with GET /view?groups=false. Shards that fail their
// defended fetch, or whose answer cannot be used, are reported in
// missing_shards and the response degrades to 200 + Warning; only a fully
// dark cluster turns into a 503. The body carries its own ETag, so a client
// holding it gets 304.
func (c *Coordinator) handleView(w http.ResponseWriter, r *http.Request) error {
	view := c.fullView
	if r.URL.Query().Get("groups") == "false" {
		view = c.summaryView
	}
	sv, err := view(r.Context())
	if err != nil {
		return err
	}
	if sv.degraded {
		degradedWarning(w)
	}
	if r.Context().Err() != nil {
		return server.ErrTimeout.WithDetail("deadline expired before the stitched view was written")
	}
	return sv.body.Write(w, r)
}

// summaryView scatters the shards' own groups=false summaries and stitches
// their counts, so a summary read moves no group lists.
func (c *Coordinator) summaryView(ctx context.Context) (*stitched, error) {
	results, errs := c.scatter(ctx, "/view?groups=false", nil, nil)
	return c.stitch(results, errs, false)
}

// fullView returns the stitched full view. The stored body, if any, is
// revalidated by a scatter carrying each shard's stored ETag; when every
// shard answers 304 it is served as it is. Otherwise the shards that
// answered 304 are fetched once more without a tag — the others already
// answered — and the view is stitched afresh and stored in place of the old
// one, or nothing is stored when it cannot be.
func (c *Coordinator) fullView(ctx context.Context) (*stitched, error) {
	stored := c.view.Load()
	var tags []string
	if stored != nil {
		tags = stored.tags
	}
	results, errs := c.scatter(ctx, "/view", nil, tags)
	var unchanged []int // shards that answered 304 to their stored tag
	for i, res := range results {
		if tags != nil && errs[i] == nil && res.Status == http.StatusNotModified {
			unchanged = append(unchanged, i)
		}
	}
	if stored != nil && len(unchanged) == len(results) {
		c.obs.Count("cluster.view.stored", 1)
		c.obs.SetGauge("cluster.missing_shards", 0)
		return stored, nil
	}
	c.obs.Count("cluster.view.stitched", 1)
	if len(unchanged) > 0 {
		again, againErrs := c.scatter(ctx, "/view", unchanged, nil)
		for _, i := range unchanged {
			results[i], errs[i] = again[i], againErrs[i]
		}
	}
	sv, err := c.stitch(results, errs, true)
	if err != nil || sv.tags == nil {
		c.view.Store(nil)
	} else {
		c.view.Store(sv)
	}
	return sv, err
}

// stitch decodes each shard answer straight into the server.ViewBody the
// shard encoded, concatenates them in band order, and encodes the result
// once. A shard whose fetch failed, whose status is not 200 (a 304 to a
// request without a tag included) or whose body does not decode is missing.
func (c *Coordinator) stitch(results []fetchResult, errs []error, includeGroups bool) (*stitched, error) {
	views := make([]server.ViewBody, len(results))
	tags := make([]string, len(results))
	for i, res := range results {
		switch {
		case errs[i] != nil:
		case res.Status != http.StatusOK:
			errs[i] = fmt.Errorf("cluster: shard %d returned status %d", i, res.Status)
		default:
			if err := json.Unmarshal(res.Body, &views[i]); err != nil {
				errs[i] = fmt.Errorf("cluster: shard %d view: %w", i, err)
			}
			tags[i] = res.Header.Get("ETag")
		}
	}
	body, err := concatenate(c.plan, views, errs, includeGroups)
	if err != nil {
		return nil, err
	}
	c.obs.SetGauge("cluster.missing_shards", float64(len(body.MissingShards)))
	enc, err := server.EncodeBody(body)
	if err != nil {
		return nil, err
	}
	sv := &stitched{body: enc, degraded: body.Degraded}
	if len(body.MissingShards) == 0 && !slices.Contains(tags, "") {
		sv.tags = tags
	}
	return sv, nil
}

// ShardStats is one shard's entry in the cluster /stats response: the
// coordinator's client-side counters plus the shard's own report verbatim.
type ShardStats struct {
	Shard    int             `json:"shard"`
	Breaker  string          `json:"breaker"`
	Opens    int             `json:"breaker_opens"`
	Failures int             `json:"fetch_failures"`
	Refused  int             `json:"fetch_refused"`
	Stats    json.RawMessage `json:"stats,omitempty"`
}

// StatsBody is the coordinator /stats response.
type StatsBody struct {
	MissingShards []int        `json:"missing_shards,omitempty"`
	Shards        []ShardStats `json:"shards"`
}

// handleStats scatter-gathers shard /stats reports: GET /stats. Per-shard
// failures degrade to missing entries, same contract as /view.
func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) error {
	results, errs := c.scatter(r.Context(), "/stats", nil, nil)
	out := StatsBody{Shards: make([]ShardStats, len(c.backends))}
	for i, b := range c.backends {
		b.mu.Lock()
		out.Shards[i] = ShardStats{
			Shard:    i,
			Breaker:  b.brk.State().String(),
			Opens:    b.brk.Opens(),
			Failures: b.fails,
			Refused:  b.refused,
		}
		b.mu.Unlock()
		if errs[i] != nil || results[i].Status != http.StatusOK {
			out.MissingShards = append(out.MissingShards, i)
			continue
		}
		out.Shards[i].Stats = json.RawMessage(results[i].Body)
	}
	if len(out.MissingShards) == len(c.backends) {
		return server.ErrNotReady.WithDetail("no shard reachable")
	}
	if len(out.MissingShards) > 0 {
		degradedWarning(w)
	}
	sort.Ints(out.MissingShards)
	return server.WriteJSON(w, out)
}

// routeCell parses and validates the global row/col query parameters and
// resolves the owning backend.
func (c *Coordinator) routeCell(r *http.Request) (b *backend, row, col int, err error) {
	q := r.URL.Query()
	row, aerr := strconv.Atoi(q.Get("row"))
	if aerr != nil {
		return nil, 0, 0, server.ErrBadRequest.WithDetail("row %q: %v", q.Get("row"), aerr)
	}
	col, aerr = strconv.Atoi(q.Get("col"))
	if aerr != nil {
		return nil, 0, 0, server.ErrBadRequest.WithDetail("col %q: %v", q.Get("col"), aerr)
	}
	if row < 0 || row >= c.plan.Rows || col < 0 || col >= c.plan.Cols {
		return nil, 0, 0, server.ErrNotFound.WithDetail("cell (%d,%d) outside the %dx%d grid", row, col, c.plan.Rows, c.plan.Cols)
	}
	shard := c.plan.ShardFor(row)
	return c.backends[shard], row, col, nil
}

// CellBody is the coordinator /cell response: the shard-resolved group
// translated into global coordinates, plus the owning shard.
type CellBody struct {
	Row   int              `json:"row"`
	Col   int              `json:"col"`
	Shard int              `json:"shard"`
	Group server.GroupBody `json:"group"`
}

// GroupQueryBody is the coordinator /group response.
type GroupQueryBody struct {
	Shard int              `json:"shard"`
	Group server.GroupBody `json:"group"`
}

// pointRead serves a routed point query, GET /cell?row=R&col=C or
// GET /group?row=R&col=C in global coordinates: the owning shard is asked
// for its LOCAL cell, its group is translated back into the global frame,
// and reply builds the route's body. The group ID is the shard's local ID —
// global IDs exist only on stitched views, a property of one view
// generation rather than a stable name, and the body names the shard so
// (shard, id) is unambiguous. A degraded shard's Warning rides along; a
// non-200 shard answer is relayed verbatim.
func (c *Coordinator) pointRead(reply func(row, col, shard int, g server.GroupBody) any) server.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) error {
		b, row, col, err := c.routeCell(r)
		if err != nil {
			return err
		}
		band := c.plan.Bands[b.index]
		res, err := c.fetch(r.Context(), b, fmt.Sprintf("/cell?row=%d&col=%d", row-band.Row0, col), "")
		if err != nil {
			return server.ErrNotReady.WithDetail("shard %d unavailable: %v", b.index, err)
		}
		if res.Status != http.StatusOK {
			return passthrough(w, res)
		}
		var cb server.CellBody
		if err := json.Unmarshal(res.Body, &cb); err != nil {
			return server.ErrInternal.WithDetail("shard %d cell payload: %v", b.index, err)
		}
		if warning := res.Header.Get("Warning"); warning != "" {
			w.Header().Set("Warning", warning)
		}
		cb.Group.RowBegin += band.Row0
		cb.Group.RowEnd += band.Row0
		return server.WriteJSON(w, reply(row, col, b.index, cb.Group))
	}
}

// passthrough relays a shard's non-200 answer (status, JSON body and
// Retry-After hint) to the client unchanged, so the shard's error taxonomy
// survives the hop.
func passthrough(w http.ResponseWriter, res fetchResult) error {
	w.Header().Set("Content-Type", "application/json")
	if ra := res.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(res.Status)
	_, err := w.Write(res.Body)
	if err != nil {
		return fmt.Errorf("cluster: relaying shard response: %w", err)
	}
	return nil
}
