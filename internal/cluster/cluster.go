// Package cluster shards the streaming repartitioner across N spatial shards
// and puts a defensively wired coordinator in front of them (DESIGN.md
// §3.20). The grid is split into contiguous row bands (Plan); each
// shard runs the existing internal/stream + internal/server stack over its
// band's sub-grid and sub-bounds, and the coordinator speaks the shards' own
// HTTP API: /cell and /group are routed point queries, /view and /stats are
// scatter-gathers whose per-shard legs each get a deadline, a circuit
// breaker, capped jittered retries, and optional p99-hedging. The
// coordinator's routes run on the shards' own request envelope
// (server.Envelope) under cluster.* names.
//
// A shard repartitions only its own band, so no group crosses a band border
// and the global view is the shard views concatenated in band order: scatter,
// decode each shard's /view into the server.ViewBody the shard encoded,
// check that it fits its band, and append its groups with rows shifted and
// IDs renumbered. The coordinator keeps the last stitched /view body, keyed
// by the shards' content-hash ETags: every read revalidates it with a
// conditional scatter and serves it again while every shard answers 304.
// That body is its only state; a restarted coordinator starts without it. A
// groups=false summary is stitched from the shards' own summaries, folding
// their valid_cells-weighted IFLs in band order as the full view does. When shards fail — or answer with a body that does not fit
// — the coordinator keeps serving what it can: HTTP 200 with Warning: 110,
// degraded=true, and the missing shards named in the body; cluster /readyz
// stays ready while at least one shard is, mirroring the degraded-serving
// contract of the single-node stack.
package cluster

import (
	"fmt"

	"spatialrepart/internal/grid"
	"spatialrepart/internal/server"
	"spatialrepart/internal/stream"
)

// NewShard constructs the streaming repartitioner for one band of the plan:
// the shard's grid is the band's rows × the global columns over the band's
// sub-bounds. Everything else about the shard — serving, checkpointing,
// fault tolerance — is the existing single-node stack, unchanged.
func NewShard(p Plan, shard int, attrs []grid.Attribute, opts stream.Options) (*stream.Repartitioner, error) {
	if shard < 0 || shard >= len(p.Bands) {
		return nil, fmt.Errorf("cluster: shard %d outside plan with %d bands", shard, len(p.Bands))
	}
	b := p.Bands[shard]
	return stream.New(b.Bounds, b.Rows(), p.Cols, attrs, opts)
}

// ViewFromStreams assembles the cluster view directly from in-process shard
// streams — the coordinator-free reference the property tests compare the
// HTTP path against byte for byte. Each view is projected by
// server.ViewBodyOf, the function a shard's /view handler runs, and stitched
// by the coordinator's own concatenation, so the two paths differ only by
// the JSON round trip. streams[i] must be the shard for band i of the plan.
func ViewFromStreams(p Plan, streams []*stream.Repartitioner) (ViewBody, error) {
	if len(streams) != len(p.Bands) {
		return ViewBody{}, fmt.Errorf("cluster: %d streams for %d bands", len(streams), len(p.Bands))
	}
	views := make([]server.ViewBody, len(streams))
	for i, s := range streams {
		v, err := s.Current()
		if err != nil {
			return ViewBody{}, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
		views[i] = server.ViewBodyOf(v, true)
	}
	return concatenate(p, views, make([]error, len(views)), true)
}
