package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spatialrepart/internal/grid"
)

// writeMixedRecords writes a records CSV with a categorical attribute whose
// codes tie often, a price that steps across the longitude midline, and a
// few records outside the 0..10 bounds.
func writeMixedRecords(t *testing.T, path string, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	var sb strings.Builder
	sb.WriteString("lat,lon,count,price,kind\n")
	for i := 0; i < n; i++ {
		lat, lon := rng.Float64()*10.4-0.2, rng.Float64()*10.4-0.2
		price := 10 + rng.Float64()*3
		if lon >= 5 {
			price += 80
		}
		fmt.Fprintf(&sb, "%.4f,%.4f,1,%.2f,%d\n", lat, lon, price, rng.Intn(3))
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStreamOutputsMatchBatch is the CLI half of streamed ≡ batch: runStream
// over a records file writes the same reduced grid, groups, adjacency,
// GeoJSON and partition bytes as run over the CSV of grid.FromRecords of
// those records, under both schedules.
func TestStreamOutputsMatchBatch(t *testing.T) {
	dir := t.TempDir()
	records := filepath.Join(dir, "points.csv")
	writeMixedRecords(t, records, 1500)
	const spec, bbox = "count:sum:int,price:avg,kind:avg:cat", "0,10,0,10"
	attrs, err := parseStreamAttrs(spec)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(records)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := grid.ReadRecordsCSV(f, len(attrs))
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	g, dropped, err := grid.FromRecords(recs, grid.Bounds{MinLat: 0, MaxLat: 10, MinLon: 0, MaxLon: 10}, 12, 12, attrs)
	if err != nil || dropped == 0 {
		t.Fatalf("FromRecords: dropped %d, err %v; want some drops", dropped, err)
	}
	gridCSV := filepath.Join(dir, "grid.csv")
	if err := createFile(gridCSV, g.WriteCSV); err != nil {
		t.Fatal(err)
	}

	files := func(prefix string) outputs {
		p := func(name string) string { return filepath.Join(dir, prefix+"-"+name) }
		return outputs{out: p("out.csv"), groupsOut: p("groups.csv"), adjOut: p("adj.csv"),
			geoOut: p("groups.geojson"), partOut: p("partition.json")}
	}
	for _, schedule := range []string{"geometric", "exact"} {
		streamed, batch := files(schedule+"-stream"), files(schedule+"-batch")
		if err := runStream(streamConfig{
			records: records, attrsSpec: spec, rows: 12, cols: 12, bbox: bbox,
			threshold: 0.1, schedule: schedule, outputs: streamed,
		}); err != nil {
			t.Fatal(err)
		}
		if err := run(runConfig{
			in: gridCSV, outputs: batch, threshold: 0.1, schedule: schedule, bbox: bbox,
		}); err != nil {
			t.Fatal(err)
		}
		for _, pair := range [][2]string{
			{streamed.out, batch.out}, {streamed.groupsOut, batch.groupsOut}, {streamed.adjOut, batch.adjOut},
			{streamed.geoOut, batch.geoOut}, {streamed.partOut, batch.partOut},
		} {
			s, err := os.ReadFile(pair[0])
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(pair[1])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(s, b) {
				t.Errorf("%s: %s (%d bytes) differs from %s (%d bytes)", schedule, filepath.Base(pair[0]), len(s), filepath.Base(pair[1]), len(b))
			}
		}
		groups, err := os.ReadFile(streamed.groupsOut)
		if err != nil {
			t.Fatal(err)
		}
		if n := bytes.Count(groups, []byte("\n")) - 1; n <= 1 || n >= 144 {
			t.Errorf("%s: %d groups, want a partition between one group and the identity", schedule, n)
		}
	}
}

// TestRunStreamDropsNaNCoordinates: rows with a NaN latitude or longitude
// are dropped and never logged, so a -wal run that ingested them restarts
// cleanly; a logged one would panic every restart in replay.
func TestRunStreamDropsNaNCoordinates(t *testing.T) {
	dir := t.TempDir()
	records := writeTestRecords(t, dir, "points.csv", 50)
	body, err := os.ReadFile(records)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(records, append(body, "NaN,5,1,10\n5,NaN,1,10\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(dir, "empty.csv")
	if err := os.WriteFile(empty, []byte("lat,lon,count,price\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := streamConfig{
		attrsSpec: "count:sum:int,price:avg", rows: 5, cols: 5, bbox: "0,10,0,10",
		threshold: 0.15, schedule: "geometric", walDir: filepath.Join(dir, "wal"),
	}
	for i, feed := range []string{records, empty} {
		cfg.records = feed
		cfg.reportOut = filepath.Join(dir, fmt.Sprintf("report%d.json", i))
		if err := runStream(cfg); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		var rep struct {
			Accepted int `json:"accepted"`
			Dropped  int `json:"dropped"`
			WALSeq   int `json:"wal_seq"`
		}
		b, err := os.ReadFile(cfg.reportOut)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &rep); err != nil {
			t.Fatal(err)
		}
		wantDropped := 2
		if i == 1 {
			wantDropped = 0 // the restart replays the WAL, which holds only accepted records
		}
		if rep.Accepted != 50 || rep.Dropped != wantDropped || rep.WALSeq != 50 {
			t.Errorf("run %d: accepted %d, dropped %d, wal_seq %d; want 50, %d, 50", i, rep.Accepted, rep.Dropped, rep.WALSeq, wantDropped)
		}
	}
}
