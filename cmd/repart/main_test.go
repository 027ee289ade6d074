package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"spatialrepart"
	"spatialrepart/internal/datagen"
)

func writeTestGrid(t *testing.T, dir string) string {
	t.Helper()
	attrs := []spatialrepart.Attribute{{Name: "v", Agg: spatialrepart.Average}}
	g := spatialrepart.NewGrid(4, 4, attrs)
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			v := 1.0
			if c >= 2 {
				v = 9
			}
			g.Set(r, c, 0, v)
		}
	}
	path := filepath.Join(dir, "in.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := g.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	in := writeTestGrid(t, dir)
	out := filepath.Join(dir, "out.csv")
	groups := filepath.Join(dir, "groups.csv")
	adj := filepath.Join(dir, "adj.csv")
	if err := run(runConfig{in: in, outputs: outputs{out: out, groupsOut: groups, adjOut: adj}, threshold: 0.1, schedule: "geometric"}); err != nil {
		t.Fatal(err)
	}
	// Reduced grid parses and matches dimensions.
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := spatialrepart.ReadGridCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	if g.Rows != 4 || g.Cols != 4 {
		t.Errorf("reduced grid %dx%d", g.Rows, g.Cols)
	}
	// Groups file has a header plus at least two data rows (two value blocks).
	gb, err := os.ReadFile(groups)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(gb)), "\n")
	if len(lines) < 3 {
		t.Errorf("groups file has %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "group,") {
		t.Errorf("groups header = %q", lines[0])
	}
	ab, err := os.ReadFile(adj)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(ab), "group,neighbor") {
		t.Errorf("adjacency header wrong: %q", string(ab)[:20])
	}
}

func TestRunExactSchedule(t *testing.T) {
	dir := t.TempDir()
	in := writeTestGrid(t, dir)
	if err := run(runConfig{in: in, threshold: 0.05, schedule: "exact"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(runConfig{threshold: 0.1, schedule: "geometric"}); err == nil {
		t.Error("want missing -in error")
	}
	if err := run(runConfig{in: "/nonexistent/file.csv", threshold: 0.1, schedule: "geometric"}); err == nil {
		t.Error("want open error")
	}
	dir := t.TempDir()
	in := writeTestGrid(t, dir)
	if err := run(runConfig{in: in, threshold: 0.1, schedule: "bogus"}); err == nil {
		t.Error("want schedule error")
	}
	if err := run(runConfig{in: in, threshold: 7, schedule: "exact"}); err == nil {
		t.Error("want threshold error")
	}
}

// TestRunRejectsNonFiniteInput: a NaN or infinite value in the -in grid
// stops the run with an error naming its line, and no output is written.
// The 64×64 taxi grid partitions into 1,593 groups at θ 0.1; with one such
// value it used to come back as the 4,096-cell identity partition, no error.
func TestRunRejectsNonFiniteInput(t *testing.T) {
	dir := t.TempDir()
	var clean bytes.Buffer
	if err := datagen.TaxiTripsMulti(42, 64, 64).Grid.WriteCSV(&clean); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(clean.String(), "\n")
	if lines[1] != "row,col,pickups:sum:int,passengers:sum:int,distance:sum,fare:sum" {
		t.Fatalf("unexpected header %q", lines[1])
	}
	for _, bad := range []string{"NaN", "+Inf", "-Inf"} {
		dirty := slices.Clone(lines)
		fields := strings.Split(dirty[99], ",") // line 100
		fields[4] = bad                         // distance
		dirty[99] = strings.Join(fields, ",")
		in := filepath.Join(dir, "in.csv")
		if err := os.WriteFile(in, []byte(strings.Join(dirty, "\n")), 0o644); err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(dir, "out.csv")
		err := run(runConfig{in: in, outputs: outputs{out: out}, threshold: 0.1, schedule: "geometric"})
		if err == nil || !strings.Contains(err.Error(), "line 100:") {
			t.Errorf("distance %s on line 100: run = %v, want an error naming line 100", bad, err)
		}
		if _, serr := os.Stat(out); !os.IsNotExist(serr) {
			t.Errorf("distance %s: -out written despite the error", bad)
		}
	}
}

func TestRunGeoJSONAndRender(t *testing.T) {
	dir := t.TempDir()
	in := writeTestGrid(t, dir)
	geo := filepath.Join(dir, "groups.geojson")
	if err := run(runConfig{
		in: in, outputs: outputs{geoOut: geo, render: true},
		threshold: 0.1, schedule: "geometric", bbox: "40,41,-74,-73",
	}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(geo)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "FeatureCollection") {
		t.Error("GeoJSON output missing FeatureCollection")
	}
}

func TestParseBounds(t *testing.T) {
	b, err := parseBounds("40, 41, -74, -73")
	if err != nil {
		t.Fatal(err)
	}
	if b.MinLat != 40 || b.MaxLat != 41 || b.MinLon != -74 || b.MaxLon != -73 {
		t.Errorf("bounds = %+v", b)
	}
	if _, err := parseBounds("1,2,3"); err == nil {
		t.Error("want arity error")
	}
	if _, err := parseBounds("a,b,c,d"); err == nil {
		t.Error("want parse error")
	}
}

func TestRunReportAndObserver(t *testing.T) {
	dir := t.TempDir()
	in := writeTestGrid(t, dir)
	report := filepath.Join(dir, "run.json")
	outObs := filepath.Join(dir, "out_obs.csv")
	if err := run(runConfig{
		in: in, outputs: outputs{out: outObs}, reportOut: report, threshold: 0.1,
		schedule: "geometric", workers: 2, obsv: spatialrepart.NewObserver(),
	}); err != nil {
		t.Fatal(err)
	}
	var rr spatialrepart.RunReport
	b, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &rr); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if rr.TotalNS <= 0 || rr.Evaluations == 0 || len(rr.Phases) == 0 {
		t.Errorf("report not populated: %+v", rr)
	}
	// The instrumented run writes the same reduced grid as a plain one.
	outPlain := filepath.Join(dir, "out_plain.csv")
	if err := run(runConfig{in: in, outputs: outputs{out: outPlain}, threshold: 0.1, schedule: "geometric"}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(outObs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(outPlain)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("instrumented run wrote a different reduced grid")
	}
}

func TestRunPartitionJSON(t *testing.T) {
	dir := t.TempDir()
	in := writeTestGrid(t, dir)
	part := filepath.Join(dir, "partition.json")
	if err := run(runConfig{in: in, outputs: outputs{partOut: part}, threshold: 0.1, schedule: "geometric"}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(part)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rp, err := spatialrepart.ReadRepartitionJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if rp.NumGroups() == 0 {
		t.Error("loaded partition is empty")
	}
}

// TestTraceOutEndToEnd runs a batch repartition with an observer attached and
// dumps the flight recorder via the -trace-out writer: the file must be
// well-formed Chrome trace-event JSON containing a repart.run complete event
// with rung.eval children in the same trace.
func TestTraceOutEndToEnd(t *testing.T) {
	dir := t.TempDir()
	in := writeTestGrid(t, dir)
	obsv := spatialrepart.NewObserver()
	if err := run(runConfig{in: in, threshold: 0.1, schedule: "geometric", obsv: obsv}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "trace.json")
	if err := writeTraceOut(obsv, path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatalf("trace-out is not well-formed JSON: %v", err)
	}
	var runTrace string
	evals := 0
	for _, e := range tf.TraceEvents {
		switch {
		case e.Name == "repart.run" && e.Ph == "X":
			runTrace = e.Args["trace_id"]
		case e.Name == "rung.eval" && e.Ph == "X":
			evals++
		}
	}
	if runTrace == "" {
		t.Fatal("trace lacks a repart.run complete event")
	}
	if evals == 0 {
		t.Fatal("trace lacks rung.eval events")
	}
}
