package cluster

import (
	"fmt"
	"math"

	"spatialrepart/internal/server"
)

// ShardMeta is the per-shard serving metadata of a stitched view response.
type ShardMeta struct {
	Shard      int     `json:"shard"`
	RowBegin   int     `json:"row_begin"` // global rows [RowBegin, RowEnd] owned
	RowEnd     int     `json:"row_end"`
	Generation int     `json:"generation"`
	Degraded   bool    `json:"degraded"`
	IFL        float64 `json:"ifl"`
}

// ViewBody is the coordinator's /view response: the global partition stitched
// from the shard views plus the cluster's serving metadata. CellGroups reuses
// the shard wire type (server.GroupBody) with global rows and IDs, so a
// healthy single-shard cluster serves exactly the bytes the unsharded server
// would. Degraded is true whenever the stitched view is anything less than
// the full fresh grid (a missing or degraded shard) and is also signaled via
// the Warning: 110 header.
type ViewBody struct {
	Degraded      bool               `json:"degraded"`
	Rows          int                `json:"rows"`
	Cols          int                `json:"cols"`
	Groups        int                `json:"groups"`
	ValidGroups   int                `json:"valid_groups"`
	IFL           float64            `json:"ifl"`
	Shards        []ShardMeta        `json:"shards"`
	MissingShards []int              `json:"missing_shards,omitempty"`
	CellGroups    []server.GroupBody `json:"cell_groups,omitempty"`
}

// concatenate stitches the shards' /view bodies into the cluster /view body.
// views[i] is band i's body and errs[i] why band i has none (failed fetch,
// non-200 answer, undecodable payload); a body that does not fit its band
// (fitBand) has none either. Such bands are listed in missing_shards rather
// than silently served as a hole; with no band left there is nothing to
// serve, and the error says why. With includeGroups false the bodies are the
// shards' groups=false summaries, and only their counts are stitched.
//
// Each shard repartitions only its own band and Algorithm 1 scans it
// row-major, so a band's groups arrive sorted by top-left corner and none
// crosses a band border. The global partition is therefore the band
// partitions concatenated in band order, rows shifted by the band's Row0 and
// IDs renumbered — the IDs a row-major scan of the whole grid would assign
// to the same groups.
//
// The stitched IFL is the valid-cell-weighted mean of the shard IFLs — each
// shard's IFL is itself a mean over its valid cells, so the weighted fold
// recovers the global mean. The exact mean lies between the smallest and
// the largest IFL of the shards with valid cells, so the rounded fold is
// clamped to that range: the clamp removes only rounding error, and shards
// that each kept IFL ≤ θ stitch to an IFL ≤ θ (unclamped, four shards at
// exactly θ = 0.1 with 33,462 / 4,255 / 9,235 / 10,910 valid cells fold to
// 0.10000000000000002). A full view and a summary fold the same counts in
// band order, so they agree bit for bit. When exactly one shard
// contributes, its IFL is passed through verbatim (bit-exact, no re-rounding
// through the fold).
func concatenate(p Plan, views []server.ViewBody, errs []error, includeGroups bool) (ViewBody, error) {
	body := ViewBody{Rows: p.Rows, Cols: p.Cols}
	var firstErr error
	weighted, weight := 0.0, 0
	minIFL, maxIFL := math.Inf(1), math.Inf(-1) // over shards with valid cells
	for i, b := range p.Bands {
		v := &views[i]
		groups, validGroups, validCells, err := 0, 0, 0, errs[i]
		if err == nil {
			groups, validGroups, validCells, err = fitBand(b, p.Cols, v, includeGroups)
		}
		if err != nil {
			body.MissingShards = append(body.MissingShards, i)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		body.Shards = append(body.Shards, ShardMeta{
			Shard:      i,
			RowBegin:   b.Row0,
			RowEnd:     b.Row1 - 1,
			Generation: v.Generation,
			Degraded:   v.Degraded,
			IFL:        v.IFL,
		})
		body.Degraded = body.Degraded || v.Degraded
		body.Groups += groups
		body.ValidGroups += validGroups
		weighted += float64(validCells) * v.IFL
		weight += validCells
		if validCells > 0 {
			minIFL, maxIFL = min(minIFL, v.IFL), max(maxIFL, v.IFL)
		}
	}
	switch {
	case len(body.Shards) == 0:
		return ViewBody{}, server.ErrNotReady.WithDetail("no shard reachable: %v", firstErr)
	case len(body.Shards) == 1:
		body.IFL = body.Shards[0].IFL
	case weight > 0:
		body.IFL = min(max(weighted/float64(weight), minIFL), maxIFL)
	}
	body.Degraded = body.Degraded || len(body.MissingShards) > 0
	if includeGroups && body.Groups > 0 {
		body.CellGroups = make([]server.GroupBody, 0, body.Groups)
		for _, m := range body.Shards {
			for _, g := range views[m.Shard].CellGroups {
				g.ID = len(body.CellGroups)
				g.RowBegin += m.RowBegin
				g.RowEnd += m.RowBegin
				g.Cells = extentCells(g)
				body.CellGroups = append(body.CellGroups, g)
			}
		}
	}
	return body, nil
}

// fitBand checks that a shard's /view body fits band b of a grid with cols
// columns and returns its group, valid-group and valid-cell counts. It rejects the whole body when the body's
// geometry is not the band's. A full view's counts are taken from its group
// list, which is rejected when a group's extent is inverted or leaves the
// band, or when the group corners are not strictly increasing in row-major
// order (which also rules out duplicates): such a body cannot be
// concatenated without guessing. A summary's counts are its own, rejected
// unless 0 ≤ valid_groups ≤ groups ≤ cells and valid_groups ≤ valid_cells ≤
// cells for the band's cells (every valid group holds at least one cell).
func fitBand(b Band, cols int, v *server.ViewBody, includeGroups bool) (groups, validGroups, validCells int, err error) {
	if v.Rows != b.Rows() || v.Cols != cols {
		return 0, 0, 0, fmt.Errorf("cluster: shard %d view is %dx%d, its band is %dx%d", b.Index, v.Rows, v.Cols, b.Rows(), cols)
	}
	if !includeGroups {
		cells := v.Rows * v.Cols
		if v.ValidGroups < 0 || v.ValidGroups > v.Groups || v.Groups > cells ||
			v.ValidCells < v.ValidGroups || v.ValidCells > cells {
			return 0, 0, 0, fmt.Errorf("cluster: shard %d summary counts (groups %d, valid_groups %d, valid_cells %d) do not fit its %d cells",
				b.Index, v.Groups, v.ValidGroups, v.ValidCells, cells)
		}
		return v.Groups, v.ValidGroups, v.ValidCells, nil
	}
	prev := -1 // row-major index of the previous group's top-left corner
	for i, g := range v.CellGroups {
		if g.RowBegin < 0 || g.RowBegin > g.RowEnd || g.RowEnd >= v.Rows ||
			g.ColBegin < 0 || g.ColBegin > g.ColEnd || g.ColEnd >= v.Cols {
			return 0, 0, 0, fmt.Errorf("cluster: shard %d group %d (rows %d..%d, cols %d..%d) is inverted or outside its %dx%d band",
				b.Index, i, g.RowBegin, g.RowEnd, g.ColBegin, g.ColEnd, v.Rows, v.Cols)
		}
		corner := g.RowBegin*v.Cols + g.ColBegin
		if corner <= prev {
			return 0, 0, 0, fmt.Errorf("cluster: shard %d group %d corner (%d,%d) does not follow the previous group's in row-major order",
				b.Index, i, g.RowBegin, g.ColBegin)
		}
		prev = corner
		if !g.Null {
			validGroups++
			validCells += extentCells(g)
		}
	}
	return len(v.CellGroups), validGroups, validCells, nil
}

// extentCells returns the number of cells in a group's extent.
func extentCells(g server.GroupBody) int {
	return (g.RowEnd - g.RowBegin + 1) * (g.ColEnd - g.ColBegin + 1)
}
