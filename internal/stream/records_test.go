package stream

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"reflect"
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

// viewDiff describes the first difference between a served view and the
// batch answer — source grid, partition, the bits of any feature, of the IFL
// or of the accepted rung, or the iteration count — or returns "" when they
// are identical.
func viewDiff(got, want *core.Repartitioned) string {
	if d := gridDiff(got.Source, want.Source); d != "" {
		return "source grid: " + d
	}
	if !reflect.DeepEqual(got.Partition, want.Partition) {
		return fmt.Sprintf("partition: %d groups vs %d", got.NumGroups(), want.NumGroups())
	}
	if len(got.Features) != len(want.Features) {
		return fmt.Sprintf("%d feature vectors vs %d", len(got.Features), len(want.Features))
	}
	for gi, fv := range want.Features {
		if len(got.Features[gi]) != len(fv) || (got.Features[gi] == nil) != (fv == nil) {
			return fmt.Sprintf("group %d features %v vs %v", gi, got.Features[gi], fv)
		}
		for k := range fv {
			if math.Float64bits(got.Features[gi][k]) != math.Float64bits(fv[k]) {
				return fmt.Sprintf("group %d attr %d: %v vs %v", gi, k, got.Features[gi][k], fv[k])
			}
		}
	}
	if math.Float64bits(got.IFL) != math.Float64bits(want.IFL) {
		return fmt.Sprintf("IFL %v vs %v", got.IFL, want.IFL)
	}
	if math.Float64bits(got.MinAdjVariation) != math.Float64bits(want.MinAdjVariation) {
		return fmt.Sprintf("accepted rung %v vs %v", got.MinAdjVariation, want.MinAdjVariation)
	}
	if got.Iterations != want.Iterations {
		return fmt.Sprintf("iterations %d vs %d", got.Iterations, want.Iterations)
	}
	return ""
}

// TestStreamMatchesFromRecords is the streamed ≡ batch oracle, for the grid
// and for the served view. Grid: after random Adds, the stream's Grid()
// equals grid.FromRecords of the records it accepted, bit for bit in values
// and validity, and FromRecords of every record it took drops exactly the
// records the stream dropped. View: every read serves core.Repartition of
// that batch grid at the stream's θ and schedule (viewDiff). Both hold
// after Checkpoint → Restore into a fresh stream and after a WAL replay.
//
// Between reads, the view leg adds a few records to cells that are already
// valid, so the served partition's null structure never changes: the feed
// on which a stream that kept a still-passing partition would serve a finer
// one than batch. A twin fed the same records but read only at the end
// serves the same view. The streams run at Workers 1 and 4 under both
// schedules, and in the first lossy trial of each schedule θ is the exact
// IFL of the batch answer over the feed.
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
	schedName := []string{core.ScheduleExact: "exact", core.ScheduleGeometric: "geometric"}
	borderline := map[core.Schedule]bool{}
	checks, mismatches := 0, 0
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
		all, droppedAll, err := grid.FromRecords(recs, b, rows, cols, attrs)
		if err != nil {
			t.Fatal(err)
		}

		sched := []core.Schedule{core.ScheduleExact, core.ScheduleGeometric}[trial%2]
		opts := Options{Threshold: 0.2, Schedule: sched, Workers: []int{1, 4}[trial/2%2]}
		if !borderline[sched] {
			ref, err := core.Repartition(all, core.Options{Threshold: opts.Threshold, Schedule: sched})
			if err != nil {
				t.Fatal(err)
			}
			if ref.IFL > 0 {
				opts.Threshold, borderline[sched] = ref.IFL, true
			}
		}
		// The restored, replayed and twin streams run at the other count.
		other := opts
		other.Workers = 5 - opts.Workers
		label := fmt.Sprintf("trial %d (%dx%d, %d attrs, %s, θ=%v, workers %d/%d)",
			trial, rows, cols, len(attrs), schedName[sched], opts.Threshold, opts.Workers, other.Workers)

		var accepted []grid.Record
		// add feeds rec to every stream and reports whether they took it.
		add := func(rec grid.Record, streams ...*Repartitioner) bool {
			t.Helper()
			took := 0
			for _, st := range streams {
				before := st.Stats().Accepted
				if err := st.Add(rec); err != nil {
					t.Fatalf("%s: Add: %v", label, err)
				}
				if st.Stats().Accepted > before {
					took++
				}
			}
			if took != 0 && took != len(streams) {
				t.Fatalf("%s: %d of %d streams accepted %+v", label, took, len(streams), rec)
			}
			return took > 0
		}
		// check reads st and compares the view it serves with the batch
		// answer over the records accepted so far.
		check := func(what string, st *Repartitioner) {
			t.Helper()
			g, _, err := grid.FromRecords(accepted, b, rows, cols, attrs)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.Repartition(g, core.Options{Threshold: opts.Threshold, Schedule: sched})
			if err != nil {
				t.Fatal(err)
			}
			v, err := st.Current()
			if err != nil {
				t.Fatalf("%s %s: Current: %v", label, what, err)
			}
			checks++
			if d := viewDiff(v.Repartitioned, want); d != "" {
				mismatches++
				t.Errorf("%s %s: served view vs batch: %s", label, what, d)
			}
		}
		// grow adds records at the centers of cells valid in g, and reads
		// every stream after every few records.
		grow := func(what string, g *grid.Grid, streams ...*Repartitioner) {
			t.Helper()
			var cells [][2]int
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					if g.Valid(r, c) {
						cells = append(cells, [2]int{r, c})
					}
				}
			}
			if len(cells) == 0 {
				return
			}
			for read := 0; read < 6; read++ {
				for i := 1 + rng.Intn(4); i > 0; i-- {
					cell := cells[rng.Intn(len(cells))]
					rec := randomFeed(rng, b, attrs, 1)[0]
					rec.Lat, rec.Lon = b.CellCenter(cell[0], cell[1], rows, cols)
					if !add(rec, streams...) {
						t.Fatalf("%s: a record at the center of valid cell %v was dropped", label, cell)
					}
					accepted = append(accepted, rec)
				}
				for i, st := range streams {
					check(fmt.Sprintf("%s, stream %d, read %d", what, i, read), st)
				}
			}
		}

		dir := t.TempDir()
		w := openWAL(t, dir)
		sopts := opts
		sopts.WAL = w
		s, err := New(b, rows, cols, attrs, sopts)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if add(rec, s) {
				accepted = append(accepted, rec)
			}
		}
		want, dropped, err := grid.FromRecords(accepted, b, rows, cols, attrs)
		if err != nil || dropped != 0 {
			t.Fatalf("%s: FromRecords(accepted): dropped %d, err %v", label, dropped, err)
		}
		st := s.Stats()
		if droppedAll != st.Dropped || len(accepted) != st.Accepted {
			t.Fatalf("%s: FromRecords dropped %d of %d, stream accepted %d and dropped %d",
				label, droppedAll, len(recs), st.Accepted, st.Dropped)
		}
		if d := gridDiff(all, want); d != "" {
			t.Fatalf("%s: FromRecords(all) vs FromRecords(accepted): %s", label, d)
		}
		if d := gridDiff(s.Grid(), want); d != "" {
			t.Fatalf("%s (%d records): stream vs batch: %s", label, len(recs), d)
		}
		check("after the feed", s)
		grow("valid cells", want, s)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if want, _, err = grid.FromRecords(accepted, b, rows, cols, attrs); err != nil {
			t.Fatal(err)
		}

		var ckpt bytes.Buffer
		if err := s.Checkpoint(&ckpt); err != nil {
			t.Fatal(err)
		}
		restored, err := New(b, rows, cols, attrs, other)
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.Restore(&ckpt); err != nil {
			t.Fatal(err)
		}
		if d := gridDiff(restored.Grid(), want); d != "" {
			t.Fatalf("%s: restored stream vs batch: %s", label, d)
		}
		check("restored", restored)

		w2 := openWAL(t, dir)
		ropts := other
		ropts.WAL = w2
		replayed, err := New(b, rows, cols, attrs, ropts)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := replayed.ReplayWAL(); err != nil || n != len(accepted) {
			t.Fatalf("%s: replayed %d of %d records, err %v", label, n, len(accepted), err)
		}
		if d := gridDiff(replayed.Grid(), want); d != "" {
			t.Fatalf("%s: replayed stream vs batch: %s", label, d)
		}
		check("replayed", replayed)
		grow("valid cells after the restart", want, restored, replayed)
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}

		twin, err := New(b, rows, cols, attrs, other)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range accepted {
			if !add(rec, twin) {
				t.Fatalf("%s: the twin dropped %+v", label, rec)
			}
		}
		check("twin read once", twin)
	}
	for _, sched := range []core.Schedule{core.ScheduleExact, core.ScheduleGeometric} {
		if !borderline[sched] {
			t.Errorf("no trial under the %s schedule set θ to a nonzero batch IFL", schedName[sched])
		}
	}
	t.Logf("%d views checked against batch, %d differed", checks, mismatches)
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
// checkpoints to them. Two variants of the golden payload restore too and
// re-encode to the golden bytes: one whose refreshes slot holds a nonzero
// count (the slot is skipped on restore, Stats().Refreshes stays 0, and a
// checkpoint writes it as 0), and the version-1 layout, which lacks the WAL
// sequence the golden stream never set.
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

	// The payload follows the 18-byte header (magic, version, length) and
	// ends 4 bytes before the CRC. Its counters start after the geometry
	// (44 bytes) and the attribute schema: generation, sinceCheck, walSeq,
	// accepted, dropped, recomputes, refreshes, each 8 bytes.
	payload := golden[18 : len(golden)-4]
	counters := 44
	for _, a := range ckptAttrs() {
		counters += 4 + len(a.Name) + 2
	}
	walSeq, refreshes := counters+16, counters+48
	if binary.LittleEndian.Uint64(payload[walSeq:]) != 0 || binary.LittleEndian.Uint64(payload[refreshes:]) != 0 {
		t.Fatal("the golden checkpoint sets a WAL sequence or refreshes; the variants below assume neither")
	}
	frame := func(version uint16, payload []byte) []byte {
		out := append([]byte(nil), golden[:8]...)
		out = binary.LittleEndian.AppendUint16(out, version)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
		out = append(out, payload...)
		return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	}
	counted := append([]byte(nil), payload...)
	binary.LittleEndian.PutUint64(counted[refreshes:], 7)
	v1 := append(append([]byte(nil), payload[:walSeq]...), payload[walSeq+8:]...)

	for _, tc := range []struct {
		name string
		file []byte
	}{
		{"golden", golden},
		{"golden with 7 refreshes", frame(checkpointVersion, counted)},
		{"golden in version 1", frame(1, v1)},
	} {
		s, err := New(testBounds(), 6, 5, ckptAttrs(), Options{Threshold: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Restore(bytes.NewReader(tc.file)); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if st := s.Stats(); st.Refreshes != 0 || st.WALSeq != 0 {
			t.Errorf("%s: restored Refreshes %d and WALSeq %d, want 0 and 0", tc.name, st.Refreshes, st.WALSeq)
		}
		var again bytes.Buffer
		if err := s.Checkpoint(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), golden) {
			t.Errorf("%s: the restored checkpoint re-encodes to bytes that differ from the golden ones", tc.name)
		}
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
