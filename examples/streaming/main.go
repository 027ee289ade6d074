// Streaming: the §VI extensions in action. Feeds a live stream of vehicle
// service requests through the streaming repartitioner (each read after new
// records serves core.Repartition of the records so far, through mild drift
// and a regime change), then reduces a month of daily snapshots with the
// spatio-temporal re-partitioner.
//
// Run with:
//
//	go run ./examples/streaming
package main

import (
	"fmt"
	"log"
	"math/rand"

	"spatialrepart/internal/datagen"
	"spatialrepart/internal/grid"
	"spatialrepart/internal/stream"
	"spatialrepart/internal/sttemporal"
)

func main() {
	streamingDemo()
	fmt.Println()
	spatioTemporalDemo()
}

func streamingDemo() {
	fmt.Println("— streaming re-partitioning —")
	bounds := grid.Bounds{MinLat: 41.6, MaxLat: 42.0, MinLon: -87.9, MaxLon: -87.5}
	attrs := []grid.Attribute{{Name: "requests", Agg: grid.Sum, Integer: true}}
	s, err := stream.New(bounds, 24, 24, attrs, stream.Options{
		Threshold:               0.1,
		MinRecordsBetweenChecks: 500,
	})
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(9))
	feed := func(n int, hotspotLat, hotspotLon float64) {
		for i := 0; i < n; i++ {
			// Requests cluster around a hotspot with background noise.
			lat := hotspotLat + rng.NormFloat64()*0.06
			lon := hotspotLon + rng.NormFloat64()*0.06
			if rng.Float64() < 0.3 {
				lat = bounds.MinLat + rng.Float64()*(bounds.MaxLat-bounds.MinLat)
				lon = bounds.MinLon + rng.Float64()*(bounds.MaxLon-bounds.MinLon)
			}
			if err := s.Add(grid.Record{Lat: lat, Lon: lon, Values: []float64{1}}); err != nil {
				log.Fatal(err)
			}
		}
	}

	// Warm-up: one record per cell so later drift changes values, not the
	// null structure.
	for r := 0; r < 24; r++ {
		for c := 0; c < 24; c++ {
			lat := bounds.MinLat + (float64(r)+0.5)/24*(bounds.MaxLat-bounds.MinLat)
			lon := bounds.MinLon + (float64(c)+0.5)/24*(bounds.MaxLon-bounds.MinLon)
			if err := s.Add(grid.Record{Lat: lat, Lon: lon, Values: []float64{1}}); err != nil {
				log.Fatal(err)
			}
		}
	}

	feed(3000, 41.75, -87.75)
	rp, err := s.Current()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after 3000 records: %d groups, IFL %.4f\n", rp.ValidGroups(), rp.IFL)

	// Mild drift: one more record per cell (a uniform tide). The old
	// partition would still pass θ, but the read recomputes and serves the
	// coarsest rung that passes on the new counts.
	for r := 0; r < 24; r++ {
		for c := 0; c < 24; c++ {
			lat := bounds.MinLat + (float64(r)+0.5)/24*(bounds.MaxLat-bounds.MinLat)
			lon := bounds.MinLon + (float64(c)+0.5)/24*(bounds.MaxLon-bounds.MinLon)
			if err := s.Add(grid.Record{Lat: lat, Lon: lon, Values: []float64{1}}); err != nil {
				log.Fatal(err)
			}
		}
	}
	rp, err = s.Current()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after mild drift:   %d groups, IFL %.4f\n", rp.ValidGroups(), rp.IFL)

	// Regime change: the hotspot jumps across town.
	feed(4000, 41.92, -87.62)
	rp, err = s.Current()
	if err != nil {
		log.Fatal(err)
	}
	st := s.Stats()
	fmt.Printf("after regime shift: %d groups, IFL %.4f\n", rp.ValidGroups(), rp.IFL)
	fmt.Printf("stream stats: %d accepted, %d recomputes\n", st.Accepted, st.Recomputes)
}

func spatioTemporalDemo() {
	fmt.Println("— spatio-temporal re-partitioning —")
	// Four "weeks" of vehicles data: weeks 1-2 share a regime, weeks 3-4
	// shift to a different one (new seed = different spatial pattern).
	var slices []*grid.Grid
	for week := 0; week < 2; week++ {
		slices = append(slices, datagen.VehiclesUni(100, 20, 20).Grid)
	}
	for week := 0; week < 2; week++ {
		slices = append(slices, datagen.VehiclesUni(200, 20, 20).Grid)
	}
	cube, err := sttemporal.NewCube(slices)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sttemporal.Repartition(cube, sttemporal.Options{Threshold: 0.15})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cube: %d slices of %d cells\n", cube.T(), slices[0].NumCells())
	fmt.Printf("shared spatial partition: %d groups (per-slice IFL ≤ %.4f)\n",
		res.Partition.NumGroups(), res.SpatialIFL)
	fmt.Printf("temporal segments: %d (cube IFL %.4f)\n", res.NumSegments(), res.IFL)
	for i, seg := range res.Segments {
		fmt.Printf("  segment %d: slices %d-%d\n", i, seg.TBeg, seg.TEnd)
	}
	if v, ok := res.ValueAt(0, 5, 5, 0); ok {
		fmt.Printf("representative requests at (t=0, cell 5,5): %.1f\n", v)
	}
}
