package stream

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"spatialrepart/internal/core"
	"spatialrepart/internal/grid"
	"spatialrepart/internal/wal"
)

// gridDiff describes the first difference between two grids — geometry,
// validity, or the bits of any stored value, null cells included — or
// returns "" when they are identical.
func gridDiff(got, want *grid.Grid) string {
	if got.Rows != want.Rows || got.Cols != want.Cols || got.NumAttrs() != want.NumAttrs() {
		return fmt.Sprintf("geometry differs: %s vs %s", got, want)
	}
	for r := 0; r < got.Rows; r++ {
		for c := 0; c < got.Cols; c++ {
			if got.Valid(r, c) != want.Valid(r, c) {
				return fmt.Sprintf("validity differs at (%d,%d)", r, c)
			}
			for k := 0; k < got.NumAttrs(); k++ {
				if math.Float64bits(got.At(r, c, k)) != math.Float64bits(want.At(r, c, k)) {
					return fmt.Sprintf("attr %d at (%d,%d): %v vs %v", k, r, c, got.At(r, c, k), want.At(r, c, k))
				}
			}
		}
	}
	return ""
}

// openWAL opens a log in dir that syncs rarely: these tests replay from the
// page cache and do not need a durable fsync per record.
func openWAL(t *testing.T, dir string) *wal.Log {
	t.Helper()
	w, err := wal.Open(dir, wal.Options{SegmentBytes: 1024, SyncEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// randomFeed draws records over and around b: some exactly on its edges,
// some outside it. Categorical codes come from {0, 1, 2}, so vote ties are
// common.
func randomFeed(rng *rand.Rand, b grid.Bounds, attrs []grid.Attribute, n int) []grid.Record {
	coord := func(lo, hi float64) float64 {
		switch rng.Intn(12) {
		case 0:
			return lo
		case 1:
			return hi
		case 2:
			return lo - rng.Float64()*(hi-lo)*0.2
		case 3:
			return hi + rng.Float64()*(hi-lo)*0.2
		}
		return lo + rng.Float64()*(hi-lo)
	}
	recs := make([]grid.Record, n)
	for i := range recs {
		rec := grid.Record{Lat: coord(b.MinLat, b.MaxLat), Lon: coord(b.MinLon, b.MaxLon), Values: make([]float64, len(attrs))}
		for k, a := range attrs {
			switch {
			case a.Categorical:
				rec.Values[k] = float64(rng.Intn(3))
			case a.Integer:
				rec.Values[k] = float64(rng.Intn(7) - 2)
			default:
				rec.Values[k] = rng.NormFloat64() * 50
			}
		}
		recs[i] = rec
	}
	return recs
}

// TestStreamMatchesFromRecords is the streamed ≡ batch oracle: after random
// Adds, the stream's Grid() equals grid.FromRecords of the records it
// accepted, bit for bit in values and validity, and FromRecords of every
// record it took drops exactly the records the stream dropped. The equality
// survives Checkpoint → Restore into a fresh stream and a WAL replay.
func TestStreamMatchesFromRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pool := []grid.Attribute{
		{Name: "count", Agg: grid.Sum, Integer: true},
		{Name: "price", Agg: grid.Average},
		{Name: "beds", Agg: grid.Average, Integer: true},
		{Name: "zone", Agg: grid.Average, Categorical: true},
		{Name: "kind", Agg: grid.Average, Categorical: true},
		{Name: "mass", Agg: grid.Sum},
	}
	for trial := 0; trial < 40; trial++ {
		rows, cols := 1+rng.Intn(8), 1+rng.Intn(8)
		lat0, lon0 := rng.Float64()*180-90, rng.Float64()*360-180
		b := grid.Bounds{MinLat: lat0, MaxLat: lat0 + 0.5 + rng.Float64()*20, MinLon: lon0, MaxLon: lon0 + 0.5 + rng.Float64()*20}
		var attrs []grid.Attribute
		for _, a := range pool {
			if rng.Intn(2) == 0 {
				attrs = append(attrs, a)
			}
		}
		if len(attrs) == 0 {
			attrs = pool[3:4]
		}
		recs := randomFeed(rng, b, attrs, 20+rng.Intn(200))

		dir := t.TempDir()
		w := openWAL(t, dir)
		s, err := New(b, rows, cols, attrs, Options{Threshold: 0.2, WAL: w})
		if err != nil {
			t.Fatal(err)
		}
		var accepted []grid.Record
		for _, rec := range recs {
			before := s.Stats().Accepted
			if err := s.Add(rec); err != nil {
				t.Fatalf("trial %d: Add: %v", trial, err)
			}
			if s.Stats().Accepted > before {
				accepted = append(accepted, rec)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		want, dropped, err := grid.FromRecords(accepted, b, rows, cols, attrs)
		if err != nil || dropped != 0 {
			t.Fatalf("trial %d: FromRecords(accepted): dropped %d, err %v", trial, dropped, err)
		}
		all, droppedAll, err := grid.FromRecords(recs, b, rows, cols, attrs)
		if err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if droppedAll != st.Dropped || len(accepted) != st.Accepted {
			t.Fatalf("trial %d: FromRecords dropped %d of %d, stream accepted %d and dropped %d",
				trial, droppedAll, len(recs), st.Accepted, st.Dropped)
		}
		if d := gridDiff(all, want); d != "" {
			t.Fatalf("trial %d: FromRecords(all) vs FromRecords(accepted): %s", trial, d)
		}
		if d := gridDiff(s.Grid(), want); d != "" {
			t.Fatalf("trial %d (%dx%d, %d attrs, %d records): stream vs batch: %s", trial, rows, cols, len(attrs), len(recs), d)
		}

		var ckpt bytes.Buffer
		if err := s.Checkpoint(&ckpt); err != nil {
			t.Fatal(err)
		}
		restored, err := New(b, rows, cols, attrs, Options{Threshold: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.Restore(&ckpt); err != nil {
			t.Fatal(err)
		}
		if d := gridDiff(restored.Grid(), want); d != "" {
			t.Fatalf("trial %d: restored stream vs batch: %s", trial, d)
		}

		w2 := openWAL(t, dir)
		replayed, err := New(b, rows, cols, attrs, Options{Threshold: 0.2, WAL: w2})
		if err != nil {
			t.Fatal(err)
		}
		n, err := replayed.ReplayWAL()
		if cerr := w2.Close(); err == nil {
			err = cerr
		}
		if err != nil || n != len(accepted) {
			t.Fatalf("trial %d: replayed %d of %d records, err %v", trial, n, len(accepted), err)
		}
		if d := gridDiff(replayed.Grid(), want); d != "" {
			t.Fatalf("trial %d: replayed stream vs batch: %s", trial, d)
		}
	}
}

// TestAddDropsNaNCoordinates: a NaN latitude or longitude is dropped like an
// out-of-bounds record, never reaches the WAL, and a reopened WAL replays
// cleanly. Binned, a NaN coordinate would index row math.MinInt64 after its
// WAL append, and every restart would panic again in replay.
func TestAddDropsNaNCoordinates(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, dir)
	s, err := New(testBounds(), 5, 5, testAttrs(), Options{Threshold: 0.1, WAL: w})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []grid.Record{
		{Lat: 1, Lon: 1, Values: []float64{1, 10}},
		{Lat: math.NaN(), Lon: 3, Values: []float64{1, 10}},
		{Lat: 3, Lon: math.NaN(), Values: []float64{1, 10}},
	} {
		if err := s.Add(rec); err != nil {
			t.Fatalf("Add(%v, %v): %v", rec.Lat, rec.Lon, err)
		}
	}
	st := s.Stats()
	if st.Accepted != 1 || st.Dropped != 2 || st.WALAppended != 1 || st.WALSeq != 1 {
		t.Fatalf("stats = {Accepted:%d Dropped:%d WALAppended:%d WALSeq:%d}, want {1 2 1 1}",
			st.Accepted, st.Dropped, st.WALAppended, st.WALSeq)
	}
	want := s.Grid()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := openWAL(t, dir)
	defer w2.Close()
	s2, err := New(testBounds(), 5, 5, testAttrs(), Options{Threshold: 0.1, WAL: w2})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s2.ReplayWAL(); err != nil || n != 1 {
		t.Fatalf("replay applied %d records, err %v; want 1, nil", n, err)
	}
	if d := gridDiff(s2.Grid(), want); d != "" {
		t.Fatal(d)
	}
}

// TestReplayWALRejectsNaNCoordinate: a NaN-coordinate record written
// straight into a WAL fails replay with the out-of-bounds error, not a panic.
func TestReplayWALRejectsNaNCoordinate(t *testing.T) {
	for _, rec := range []grid.Record{
		{Lat: math.NaN(), Lon: 3, Values: []float64{1, 10}},
		{Lat: 3, Lon: math.NaN(), Values: []float64{1, 10}},
	} {
		err := replayRaw(t, rec)
		if err == nil || !strings.Contains(err.Error(), "outside the grid bounds") {
			t.Errorf("replay of (%v, %v): err = %v, want the out-of-bounds error", rec.Lat, rec.Lon, err)
		}
	}
}

// TestReplayWALNamesSchemaChange: a WAL record with more values than the
// stream has attributes fails replay with an error that names the likely
// cause, a schema changed under a live WAL.
func TestReplayWALNamesSchemaChange(t *testing.T) {
	err := replayRaw(t, grid.Record{Lat: 1, Lon: 1, Values: []float64{1, 10, 100}})
	if err == nil || !strings.Contains(err.Error(), "has 3 values, want 2 (schema changed under a live WAL?)") {
		t.Fatalf("replay of a 3-value record into a 2-attribute stream: err = %v, want the schema hint", err)
	}
}

// replayRaw writes rec straight into a fresh WAL, bypassing Add, and returns
// the error of replaying it into a 5×5 stream.
func replayRaw(t *testing.T, rec grid.Record) error {
	t.Helper()
	dir := t.TempDir()
	w := openWAL(t, dir)
	if _, err := w.Append(wal.EncodeRecord(rec)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := openWAL(t, dir)
	defer w2.Close()
	s, err := New(testBounds(), 5, 5, testAttrs(), Options{Threshold: 0.1, WAL: w2})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.ReplayWAL()
	return err
}

// TestAddRejectsNonFiniteValues: a NaN or ±Inf value is an error before the
// WAL append, inside or outside the bounds, and leaves the aggregates and
// the served view untouched. Folded, one NaN value would make its cell's
// sum NaN for good, so no rung of any later check would pass and the
// identity partition would be served as a normal view.
func TestAddRejectsNonFiniteValues(t *testing.T) {
	dir := t.TempDir()
	w := openWAL(t, dir)
	defer w.Close()
	s, err := New(testBounds(), 6, 6, testAttrs(), Options{Threshold: 0.2, WAL: w})
	if err != nil {
		t.Fatal(err)
	}
	fillStream(t, s, 300, 3)
	v0, err := s.Current()
	if err != nil {
		t.Fatal(err)
	}
	before, g0 := s.Stats(), s.Grid()
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, lat := range []float64{1, 99} {
			err := s.Add(grid.Record{Lat: lat, Lon: 1, Values: []float64{1, v}})
			if err == nil || !strings.Contains(err.Error(), "value") {
				t.Errorf("Add value %v at lat %v: err = %v, want a non-finite value error", v, lat, err)
			}
		}
	}
	after := s.Stats()
	if after.Accepted != before.Accepted || after.Dropped != before.Dropped || after.WALAppended != before.WALAppended {
		t.Errorf("rejected records moved the counters: %+v -> %+v", before, after)
	}
	if d := gridDiff(s.Grid(), g0); d != "" {
		t.Errorf("rejected records changed the aggregates: %s", d)
	}
	v1, err := s.Current()
	if err != nil {
		t.Fatal(err)
	}
	if v1.Repartitioned != v0.Repartitioned || v1.Degraded {
		t.Errorf("rejected records changed the served view: generation %d -> %d", v0.Generation, v1.Generation)
	}
}

// TestReplayWALRejectsNonFiniteValue: a WAL record with a non-finite value
// (written by a process that did not check) fails replay instead of
// poisoning the aggregates.
func TestReplayWALRejectsNonFiniteValue(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := replayRaw(t, grid.Record{Lat: 1, Lon: 1, Values: []float64{1, v}}); err == nil {
			t.Errorf("replay of value %v succeeded, want an error", v)
		}
	}
}

// goldenStream rebuilds the stream whose checkpoint is committed as
// testdata/checkpoint_v2.golden: a 6×5 grid with a categorical attribute,
// empty cells, out-of-bounds drops, one served view, and records folded in
// after it.
func goldenStream(t *testing.T) *Repartitioner {
	t.Helper()
	s, err := New(testBounds(), 6, 5, ckptAttrs(), Options{Threshold: 0.2, Schedule: core.ScheduleGeometric})
	if err != nil {
		t.Fatal(err)
	}
	ckptFill(t, s, 60, 17)
	for i := 0; i < 3; i++ {
		if err := s.Add(grid.Record{Lat: 11 + float64(i), Lon: 1, Values: []float64{1, 2, 3}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Current(); err != nil {
		t.Fatal(err)
	}
	ckptFill(t, s, 15, 18)
	return s
}

// TestCheckpointGoldenBytes pins the checkpoint format: the committed golden
// file restores and re-encodes to the same bytes, and the same feed
// checkpoints to them.
func TestCheckpointGoldenBytes(t *testing.T) {
	golden, err := os.ReadFile("testdata/checkpoint_v2.golden")
	if err != nil {
		t.Fatal(err)
	}
	var fresh bytes.Buffer
	if err := goldenStream(t).Checkpoint(&fresh); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh.Bytes(), golden) {
		t.Errorf("the golden feed checkpoints to %d bytes that differ from the %d golden bytes", fresh.Len(), len(golden))
	}
	s, err := New(testBounds(), 6, 5, ckptAttrs(), Options{Threshold: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(bytes.NewReader(golden)); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := s.Checkpoint(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), golden) {
		t.Error("the restored golden checkpoint re-encodes to different bytes")
	}
}

// FuzzStreamMatchesFromRecords feeds arbitrary bytes through the records
// CSV scanner into a stream. Nothing may panic; a record Add rejects must be
// rejected by FromRecords too; and FromRecords over the records Add took
// must succeed, report the stream's drop count, and equal Grid().
func FuzzStreamMatchesFromRecords(f *testing.F) {
	f.Add("lat,lon,count,kind\n1,1,1,2\n1.5,1.2,1,1\n1.1,1.9,1,2\n1.3,1.4,1,1\n")
	f.Add("lat,lon,count,kind\nNaN,5,1,1\n5,NaN,1,1\nnan,nan,1,1\n")
	f.Add("lat,lon,count,kind\n2,2,Inf,1\n3,3,-Inf,1\n4,4,1,NaN\n5,5,1,+Inf\n")
	f.Add("lat,lon,count,kind\n-0,-0,-0,-0\n0,0,0,0\n-0,0,-0,0\n")
	f.Add("lat,lon,count,kind\n10,10,1e308,3\n10,10,1e308,3\n9.99,9.99,-1e308,3\n")
	f.Add("lat,lon,count,kind\n0,10,1,2\n10,0,1,2\n0,0,1,2\n10,10,1,2\n5,10,1,2\n10,5,1,2\n")
	f.Add("lat,lon,count,kind\n-1e-300,5,1,1\n10.000000000000002,5,1,1\nInf,5,1,1\n5,-Inf,1,1\n")
	b := testBounds()
	attrs := []grid.Attribute{
		{Name: "count", Agg: grid.Sum, Integer: true},
		{Name: "kind", Agg: grid.Average, Categorical: true},
	}
	f.Fuzz(func(t *testing.T, data string) {
		s, err := New(b, 3, 4, attrs, Options{Threshold: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		var took []grid.Record
		_ = grid.ScanRecordsCSV(strings.NewReader(data), len(attrs), func(rec grid.Record) error {
			if err := s.Add(rec); err != nil {
				if _, _, ferr := grid.FromRecords([]grid.Record{rec}, b, 3, 4, attrs); ferr == nil {
					t.Fatalf("Add rejected %+v (%v) but FromRecords accepted it", rec, err)
				}
				return nil
			}
			took = append(took, rec)
			return nil
		})
		want, dropped, err := grid.FromRecords(took, b, 3, 4, attrs)
		if err != nil {
			t.Fatalf("FromRecords over the records Add took: %v", err)
		}
		if st := s.Stats(); dropped != st.Dropped || len(took)-dropped != st.Accepted {
			t.Fatalf("FromRecords dropped %d of %d, stream accepted %d and dropped %d", dropped, len(took), st.Accepted, st.Dropped)
		}
		if d := gridDiff(s.Grid(), want); d != "" {
			t.Fatal(d)
		}
	})
}
