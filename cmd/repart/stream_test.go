package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spatialrepart"
	"spatialrepart/internal/grid"
)

// writeTestRecords writes a raw records CSV: a dense field of points whose
// value steps up across the longitude midline, so the partition splits.
func writeTestRecords(t *testing.T, dir, name string, n int) string {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("lat,lon,count,price\n")
	for i := 0; i < n; i++ {
		lat := float64(i%20)/2 + 0.25
		lon := float64((i*7)%20)/2 + 0.25
		price := 10.0
		if lon >= 5 {
			price = 90
		}
		fmt.Fprintf(&sb, "%g,%g,1,%g\n", lat, lon, price)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseStreamAttrs(t *testing.T) {
	attrs, err := parseStreamAttrs("count:sum:int, price:avg ,kind:avg:cat")
	if err != nil {
		t.Fatal(err)
	}
	want := []grid.Attribute{
		{Name: "count", Agg: grid.Sum, Integer: true},
		{Name: "price", Agg: grid.Average},
		{Name: "kind", Agg: grid.Average, Categorical: true},
	}
	if len(attrs) != len(want) {
		t.Fatalf("got %d attrs", len(attrs))
	}
	for i := range want {
		if attrs[i] != want[i] {
			t.Errorf("attr %d = %+v, want %+v", i, attrs[i], want[i])
		}
	}
	for _, bad := range []string{"", "count", "count:median", "count:sum:huge"} {
		if _, err := parseStreamAttrs(bad); err == nil {
			t.Errorf("spec %q: want error", bad)
		}
	}
}

func TestRunStreamEndToEnd(t *testing.T) {
	dir := t.TempDir()
	records := writeTestRecords(t, dir, "points.csv", 400)
	out := filepath.Join(dir, "out.csv")
	report := filepath.Join(dir, "report.json")
	ckpt := filepath.Join(dir, "state.ckpt")
	cfg := streamConfig{
		records: records, attrsSpec: "count:sum:int,price:avg",
		rows: 8, cols: 8, bbox: "0,10,0,10",
		threshold: 0.15, schedule: "geometric",
		checkpoint: ckpt, checkpointEvery: 100,
		outputs: outputs{out: out}, reportOut: report,
	}
	if err := runStream(cfg); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := spatialrepart.ReadGridCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	if g.Rows != 8 || g.Cols != 8 {
		t.Errorf("reduced grid %dx%d", g.Rows, g.Cols)
	}
	rb, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rb), `"accepted": 400`) {
		t.Errorf("report missing accepted count:\n%s", rb)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	if _, err := os.Stat(ckpt + ".tmp"); !os.IsNotExist(err) {
		t.Error("temp checkpoint file left behind")
	}

	// Second run restores the checkpoint: with only a header in the records
	// file the accepted count carries over from the first run.
	empty := filepath.Join(dir, "empty.csv")
	if err := os.WriteFile(empty, []byte("lat,lon,count,price\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	report2 := filepath.Join(dir, "report2.json")
	out2 := filepath.Join(dir, "out2.csv")
	cfg2 := cfg
	cfg2.records, cfg2.reportOut, cfg2.out = empty, report2, out2
	if err := runStream(cfg2); err != nil {
		t.Fatal(err)
	}
	rb2, err := os.ReadFile(report2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rb2), `"accepted": 400`) {
		t.Errorf("restored run lost the accepted count:\n%s", rb2)
	}
	// Identical aggregates serve an identical reduced grid.
	b1, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(out2)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Error("restored run wrote a different reduced grid")
	}
}

func TestRunStreamErrors(t *testing.T) {
	dir := t.TempDir()
	records := writeTestRecords(t, dir, "points.csv", 40)
	base := streamConfig{
		records: records, attrsSpec: "count:sum,price:avg",
		rows: 4, cols: 4, bbox: "0,10,0,10", threshold: 0.1, schedule: "geometric",
	}

	cfg := base
	cfg.attrsSpec = ""
	if err := runStream(cfg); err == nil {
		t.Error("want missing attrs error")
	}
	cfg = base
	cfg.bbox = "10,0,0,10" // inverted latitude span
	if err := runStream(cfg); err == nil {
		t.Error("want bounds validation error")
	}
	cfg = base
	cfg.schedule = "bogus"
	if err := runStream(cfg); err == nil {
		t.Error("want schedule error")
	}
	cfg = base
	cfg.records = filepath.Join(dir, "nonexistent.csv")
	if err := runStream(cfg); err == nil {
		t.Error("want open error")
	}
	cfg = base
	cfg.attrsSpec = "count:sum" // arity mismatch vs two-value rows
	if err := runStream(cfg); err == nil {
		t.Error("want record arity error")
	}
	// A corrupt checkpoint must fail the run, not silently start fresh.
	cfg = base
	cfg.checkpoint = filepath.Join(dir, "bad.ckpt")
	if err := os.WriteFile(cfg.checkpoint, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runStream(cfg); err == nil {
		t.Error("want corrupt checkpoint error")
	}
}

func TestRunStreamWALReplay(t *testing.T) {
	dir := t.TempDir()
	records := writeTestRecords(t, dir, "points.csv", 300)
	walDir := filepath.Join(dir, "wal")
	out := filepath.Join(dir, "out.csv")
	cfg := streamConfig{
		records: records, attrsSpec: "count:sum:int,price:avg",
		rows: 8, cols: 8, bbox: "0,10,0,10",
		threshold: 0.15, schedule: "geometric",
		walDir: walDir, walSync: "every=16", walSegmentBytes: 2048,
		outputs: outputs{out: out},
	}
	if err := runStream(cfg); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(walDir, "*.seg"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("want >=2 rotated segments, got %v (err %v)", segs, err)
	}

	// No checkpoint was ever taken, so a restart rebuilds the whole state
	// from the WAL alone: an empty feed must still serve the same grid.
	empty := filepath.Join(dir, "empty.csv")
	if err := os.WriteFile(empty, []byte("lat,lon,count,price\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out2 := filepath.Join(dir, "out2.csv")
	report2 := filepath.Join(dir, "report2.json")
	cfg2 := cfg
	cfg2.records, cfg2.out, cfg2.reportOut = empty, out2, report2
	if err := runStream(cfg2); err != nil {
		t.Fatal(err)
	}
	rb, err := os.ReadFile(report2)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"accepted": 300`, `"wal_replayed": 300`, `"wal_seq": 300`} {
		if !strings.Contains(string(rb), want) {
			t.Errorf("replayed-run report missing %s:\n%s", want, rb)
		}
	}
	b1, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(out2)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Error("WAL-replayed run wrote a different reduced grid")
	}
}

func TestRunStreamWALCheckpointTruncates(t *testing.T) {
	dir := t.TempDir()
	records := writeTestRecords(t, dir, "points.csv", 200)
	walDir := filepath.Join(dir, "wal")
	ckpt := filepath.Join(dir, "state.ckpt")
	cfg := streamConfig{
		records: records, attrsSpec: "count:sum:int,price:avg",
		rows: 8, cols: 8, bbox: "0,10,0,10",
		threshold: 0.15, schedule: "geometric",
		walDir: walDir, checkpoint: ckpt, checkpointEvery: 50,
	}
	if err := runStream(cfg); err != nil {
		t.Fatal(err)
	}
	// The final checkpoint covers every record, so the restart replays
	// nothing and restores everything from the checkpoint.
	report := filepath.Join(dir, "report.json")
	empty := filepath.Join(dir, "empty.csv")
	if err := os.WriteFile(empty, []byte("lat,lon,count,price\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.records, cfg2.reportOut = empty, report
	if err := runStream(cfg2); err != nil {
		t.Fatal(err)
	}
	rb, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rb), `"accepted": 200`) {
		t.Errorf("restored run lost records:\n%s", rb)
	}
	if strings.Contains(string(rb), `"wal_replayed"`) {
		t.Errorf("checkpoint-covered restart should replay nothing:\n%s", rb)
	}
}

func TestRunStreamWALValidation(t *testing.T) {
	dir := t.TempDir()
	records := writeTestRecords(t, dir, "points.csv", 20)
	base := streamConfig{
		records: records, attrsSpec: "count:sum,price:avg",
		rows: 4, cols: 4, bbox: "0,10,0,10", threshold: 0.1, schedule: "geometric",
	}

	cfg := base
	cfg.walSync = "every=5" // -wal-sync without -wal
	if err := runStream(cfg); err == nil {
		t.Error("want -wal-sync-without--wal error")
	}
	cfg = base
	cfg.walSegmentBytes = 1 << 20 // -wal-segment-bytes without -wal
	if err := runStream(cfg); err == nil {
		t.Error("want -wal-segment-bytes-without--wal error")
	}
	for _, bad := range []string{"sometimes", "every=0", "every=x", "interval=0", "interval=soon"} {
		cfg = base
		cfg.walDir = filepath.Join(dir, "wal")
		cfg.walSync = bad
		if err := runStream(cfg); err == nil {
			t.Errorf("want -wal-sync %q parse error", bad)
		}
	}

	// A WAL directory is stamped with grid geometry + shard spec: pointing a
	// differently-configured run (here: a shard worker) at the same
	// directory must fail fast instead of replaying foreign records.
	cfg = base
	cfg.walDir = filepath.Join(dir, "stamped")
	if err := runStream(cfg); err != nil {
		t.Fatal(err)
	}
	cfg.shard = "0/2"
	if err := runStream(cfg); err == nil || !strings.Contains(err.Error(), "stamp") {
		t.Errorf("want stamp mismatch error for cross-wired shard WAL dir, got %v", err)
	}
}
