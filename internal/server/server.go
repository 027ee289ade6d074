// Package server is the production serving layer over the streaming
// repartitioner (DESIGN.md §3.17): a stdlib-only HTTP front end exposing the
// current re-partitioned view, per-cell-group lookups, and run/stream stats
// as JSON, wrapped in a full robustness envelope — admission control with a
// bounded in-flight limit and a deadline-aware wait queue, per-request
// timeouts and body limits, per-request panic isolation, a structured error
// taxonomy, liveness vs readiness endpoints, and graceful drain on shutdown.
// The envelope's limits are fixed constants, the same for every front end.
// The envelope is exported (Envelope) so the cluster coordinator mounts its
// routes on the same one, under its own metric names.
//
// The design premise is that PR 4's fault tolerance ends at the process
// boundary unless the serving edge carries it the rest of the way: a
// Degraded last-good view must still serve (flagged, with a Warning header),
// an open circuit breaker must flip readiness so load balancers route away
// without killing the process, and overload must shed requests in
// microseconds with 503 + Retry-After instead of stacking goroutines. Every
// decision (admitted, queued, shed, panicked, drain duration) is exported
// through internal/obs.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"

	"spatialrepart/internal/breaker"
	"spatialrepart/internal/core"
	"spatialrepart/internal/fault"
	"spatialrepart/internal/obs"
	"spatialrepart/internal/stream"
)

// Source is the serving layer's view of the streaming repartitioner.
// *stream.Repartitioner implements it; tests substitute stubs.
type Source interface {
	// CurrentCtx returns the freshest servable view (possibly Degraded); it
	// errors only while no view has ever been produced. ctx carries the
	// request's trace context so the serve links into the request span tree
	// (trace linkage only — implementations must not let a request deadline
	// cancel shared recompute work).
	CurrentCtx(ctx context.Context) (stream.View, error)
	// Stats returns the stream's counters, including the serving state
	// (HasView, Breaker) readiness is derived from.
	Stats() stream.Stats
	// Report returns the stream's full machine-readable summary.
	Report() stream.Report
}

// Config parameterizes a Server. Only Source is required. The envelope's
// limits are not configurable: every front end runs the constants tabulated
// in DESIGN.md §3.17.
type Config struct {
	// Source supplies views and stats (required).
	Source Source
	// Obs, when non-nil, receives the serving metrics — including RED
	// (rate/errors/duration) series per route×status — and records
	// server.request spans into its flight recorder. Nil disables
	// instrumentation at the usual one-branch cost.
	Obs *obs.Observer
	// Logger, when non-nil, receives one structured access-log record per
	// query request: trace ID, route, status, shed reason, and latency. Nil
	// disables access logging.
	Logger *slog.Logger
	// Fault, when non-nil, is consulted at the "server.request" injection
	// point after admission — the overload/drain chaos hook (injected
	// delays occupy a real in-flight slot; injected panics exercise the
	// per-request recovery).
	Fault *fault.Injector
	// Clock substitutes the time source for deterministic tests (nil = real
	// clock).
	Clock Clock
}

// Server is the shard's HTTP serving subsystem: the view, group, cell and
// stats routes over a Source, mounted on the request Envelope. Create with
// New; mount via Handler or run with Serve, stop with Shutdown (all three
// come from the Envelope).
type Server struct {
	*Envelope
	src Source

	viewMu sync.Mutex
	views  *viewBytes // the encoded /view bodies of the latest served view
}

// New validates cfg and returns a ready-to-mount Server.
func New(cfg Config) (*Server, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("server: Config.Source is required")
	}
	env := NewEnvelope("server", cfg.Obs, cfg.Fault, cfg.Clock, cfg.Logger)
	s := &Server{Envelope: env, src: cfg.Source}
	env.Probe("/healthz", s.handleHealthz)
	env.Probe("/readyz", s.handleReadyz)
	env.Query("/view", s.handleView)
	env.Query("/group", s.handleGroup)
	env.Query("/cell", s.handleCell)
	env.Query("/stats", s.handleStats)
	return s, nil
}

// ---- probe endpoints -------------------------------------------------------

// HealthBody is the /healthz response.
type HealthBody struct {
	Status   string `json:"status"` // always "ok": the process is up and serving
	Draining bool   `json:"draining,omitempty"`
}

// handleHealthz is liveness: 200 as long as the process can answer at all —
// even while draining or with the breaker open. Restarting a process because
// its dependency is failing only amplifies an outage; that signal belongs to
// readiness.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) error {
	return WriteJSON(w, HealthBody{Status: "ok", Draining: s.Draining()})
}

// ReadyBody is the /readyz response.
type ReadyBody struct {
	Ready    bool   `json:"ready"`
	Reason   string `json:"reason,omitempty"` // why not ready
	Degraded bool   `json:"degraded"`         // ready but serving a stale last-good view
	Breaker  string `json:"breaker"`
	Gen      int    `json:"generation"`
}

// handleReadyz is readiness: not-ready (503) while draining, while the
// stream has never produced a view, or while the circuit breaker is open —
// the cases where a load balancer should route traffic elsewhere. A degraded
// (stale but servable) view is still ready: degraded serving is the
// fault-tolerance contract working, not an outage.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) error {
	st := s.src.Stats()
	body := ReadyBody{
		Ready:   true,
		Breaker: st.Breaker.String(),
		Gen:     st.Generation,
	}
	switch {
	case s.Draining():
		body.Ready, body.Reason = false, "draining"
	case !st.HasView:
		body.Ready, body.Reason = false, "no view produced yet"
	case st.Breaker == breaker.Open:
		body.Ready, body.Reason = false, "stream circuit breaker open"
		body.Degraded = true
	}
	w.Header().Set("Content-Type", "application/json")
	if !body.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(body); err != nil {
		return fmt.Errorf("encoding readiness: %w", err)
	}
	return nil
}

// ---- query endpoints -------------------------------------------------------

// GroupBody is one cell-group of the served view.
type GroupBody struct {
	ID       int       `json:"id"`
	RowBegin int       `json:"row_begin"`
	RowEnd   int       `json:"row_end"`
	ColBegin int       `json:"col_begin"`
	ColEnd   int       `json:"col_end"`
	Cells    int       `json:"cells"`
	Null     bool      `json:"null,omitempty"`
	Features []float64 `json:"features,omitempty"`
}

// ViewBody is the /view response: the full served partition plus its serving
// metadata. Degraded mirrors the view flag (also signaled via the Warning
// header). ValidCells is the number of cells in the non-null groups — the
// cells the IFL is a mean over, so the cluster coordinator can weight this
// view's IFL from the groups=false summary alone.
type ViewBody struct {
	Generation  int         `json:"generation"`
	Degraded    bool        `json:"degraded"`
	Rows        int         `json:"rows"`
	Cols        int         `json:"cols"`
	Groups      int         `json:"groups"`
	ValidGroups int         `json:"valid_groups"`
	ValidCells  int         `json:"valid_cells"`
	IFL         float64     `json:"ifl"`
	CellGroups  []GroupBody `json:"cell_groups,omitempty"`
}

// currentView fetches the servable view, mapping "no view ever" to the
// not-ready taxonomy error and stamping the degraded Warning header. ctx
// links the serve into the request's trace.
func (s *Server) currentView(ctx context.Context, w http.ResponseWriter) (stream.View, error) {
	v, err := s.src.CurrentCtx(ctx)
	if err != nil {
		return stream.View{}, ErrNotReady.WithDetail("no servable view: %v", err)
	}
	if v.Repartitioned == nil {
		return stream.View{}, ErrNotReady.WithDetail("no servable view")
	}
	if v.Degraded {
		// 110 = "Response is Stale": the stream could not fold the freshest
		// records in, so this is the flagged last-good view.
		w.Header().Set("Warning", `110 - "serving last-good degraded view"`)
	}
	return v, nil
}

// handleView serves the current re-partitioned view: GET /view
// (?groups=false omits the per-group list for a cheap summary). Each body is
// encoded and tagged once per served view, by the first read that asks for
// it; later reads of the same view write the stored bytes, or answer 304
// when their If-None-Match names its ETag.
func (s *Server) handleView(w http.ResponseWriter, r *http.Request) error {
	v, err := s.currentView(r.Context(), w)
	if err != nil {
		return err
	}
	body, err := s.viewBytesOf(v).encoded(v, r.URL.Query().Get("groups") != "false")
	if err != nil {
		return err
	}
	if r.Context().Err() != nil {
		return ErrTimeout.WithDetail("deadline expired before the view was written")
	}
	return body.Write(w, r)
}

// viewBytes holds the encoded /view bodies of one served view. The key is
// the view's dataset, generation and degraded flag: a generation number alone
// does not name a dataset (a stream restored from a checkpoint installs its
// next view under a generation it may already have served).
type viewBytes struct {
	rp         *core.Repartitioned
	generation int
	degraded   bool
	once       [2]sync.Once // [0] the groups=false summary, [1] the full view
	bodies     [2]*StoredBody
	errs       [2]error // why a body could not be encoded
}

// viewBytesOf returns the stored bodies of v, replacing those of any other
// view: the Server holds at most one.
func (s *Server) viewBytesOf(v stream.View) *viewBytes {
	s.viewMu.Lock()
	defer s.viewMu.Unlock()
	if vb := s.views; vb != nil && vb.rp == v.Repartitioned && vb.generation == v.Generation && vb.degraded == v.Degraded {
		return vb
	}
	s.views = &viewBytes{rp: v.Repartitioned, generation: v.Generation, degraded: v.Degraded}
	return s.views
}

// encoded returns v's body with or without the group list, encoding it on
// the first call; concurrent first calls wait for that one encode.
func (vb *viewBytes) encoded(v stream.View, includeGroups bool) (*StoredBody, error) {
	i := 0
	if includeGroups {
		i = 1
	}
	vb.once[i].Do(func() {
		vb.bodies[i], vb.errs[i] = EncodeBody(ViewBodyOf(v, includeGroups))
	})
	return vb.bodies[i], vb.errs[i]
}

// handleGroup serves one cell-group: GET /group?id=N.
func (s *Server) handleGroup(w http.ResponseWriter, r *http.Request) error {
	id, err := strconv.Atoi(r.URL.Query().Get("id"))
	if err != nil {
		return ErrBadRequest.WithDetail("group id %q: %v", r.URL.Query().Get("id"), err)
	}
	v, verr := s.currentView(r.Context(), w)
	if verr != nil {
		return verr
	}
	if id < 0 || id >= v.NumGroups() {
		return ErrNotFound.WithDetail("group %d outside [0, %d)", id, v.NumGroups())
	}
	return WriteJSON(w, GroupBodyOf(v, id))
}

// CellBody is the /cell response: the group containing one grid cell.
type CellBody struct {
	Row   int       `json:"row"`
	Col   int       `json:"col"`
	Group GroupBody `json:"group"`
}

// handleCell resolves the cell-group containing a grid cell:
// GET /cell?row=R&col=C.
func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) error {
	q := r.URL.Query()
	row, err := strconv.Atoi(q.Get("row"))
	if err != nil {
		return ErrBadRequest.WithDetail("row %q: %v", q.Get("row"), err)
	}
	col, err := strconv.Atoi(q.Get("col"))
	if err != nil {
		return ErrBadRequest.WithDetail("col %q: %v", q.Get("col"), err)
	}
	v, verr := s.currentView(r.Context(), w)
	if verr != nil {
		return verr
	}
	p := v.Partition
	if row < 0 || row >= p.Rows || col < 0 || col >= p.Cols {
		return ErrNotFound.WithDetail("cell (%d,%d) outside the %dx%d grid", row, col, p.Rows, p.Cols)
	}
	return WriteJSON(w, CellBody{Row: row, Col: col, Group: GroupBodyOf(v, p.GroupOf(row, col))})
}

// handleStats serves the stream's machine-readable report: GET /stats.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) error {
	return WriteJSON(w, s.src.Report())
}

// ViewBodyOf projects a served view into its wire form — the single
// projection both the shard serving path and the cluster coordinator's
// in-process reference use, so "what a shard serves" and "what the
// coordinator concatenates" can never drift.
func ViewBodyOf(v stream.View, includeGroups bool) ViewBody {
	out := ViewBody{
		Generation: v.Generation,
		Degraded:   v.Degraded,
		Rows:       v.Partition.Rows,
		Cols:       v.Partition.Cols,
		Groups:     v.NumGroups(),
		IFL:        v.IFL,
	}
	for _, cg := range v.Partition.Groups {
		if !cg.Null {
			out.ValidGroups++
			out.ValidCells += cg.Size()
		}
	}
	if includeGroups {
		out.CellGroups = make([]GroupBody, 0, v.NumGroups())
		for gi := range v.Partition.Groups {
			out.CellGroups = append(out.CellGroups, GroupBodyOf(v, gi))
		}
	}
	return out
}

// GroupBodyOf projects group gi of the view into its wire form.
func GroupBodyOf(v stream.View, gi int) GroupBody {
	cg := v.Partition.Groups[gi]
	g := GroupBody{
		ID:       gi,
		RowBegin: cg.RBeg,
		RowEnd:   cg.REnd,
		ColBegin: cg.CBeg,
		ColEnd:   cg.CEnd,
		Cells:    cg.Size(),
		Null:     cg.Null,
	}
	if gi < len(v.Features) && v.Features[gi] != nil {
		g.Features = append([]float64(nil), v.Features[gi]...)
	}
	return g
}
