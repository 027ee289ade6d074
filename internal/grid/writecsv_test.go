package grid_test

import (
	"bytes"
	"encoding/csv"
	"io"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"spatialrepart/internal/core"
	"spatialrepart/internal/datagen"
	"spatialrepart/internal/grid"
)

// encodingCSV is the reference encoding of WriteCSV: every record through
// encoding/csv, every value formatted on its own.
func encodingCSV(t *testing.T, g *grid.Grid) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	header := []string{"row", "col"}
	for _, a := range g.Attrs {
		col := a.Name + ":" + a.Agg.String()
		if a.Integer {
			col += ":int"
		}
		if a.Categorical {
			col += ":cat"
		}
		header = append(header, col)
	}
	recs := [][]string{{"#grid", strconv.Itoa(g.Rows), strconv.Itoa(g.Cols)}, header}
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			if !g.Valid(r, c) {
				continue
			}
			rec := []string{strconv.Itoa(r), strconv.Itoa(c)}
			for k := range g.Attrs {
				rec = append(rec, strconv.FormatFloat(g.At(r, c, k), 'g', -1, 64))
			}
			recs = append(recs, rec)
		}
	}
	if err := cw.WriteAll(recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkWriteCSV(t *testing.T, name string, g *grid.Grid) {
	t.Helper()
	var got bytes.Buffer
	if err := g.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if want := encodingCSV(t, g); !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("%s: WriteCSV wrote\n%s\nencoding/csv writes\n%s", name, got.Bytes(), want)
	}
}

// TestWriteCSVNeighbourReuse: WriteCSV copies the value text of the valid
// cell above or to the left when the vectors have the same bits, so its
// bytes must still equal the reference on grids built to trip that reuse.
func TestWriteCSVNeighbourReuse(t *testing.T) {
	attrs := []grid.Attribute{{Name: "a", Agg: grid.Average}, {Name: "b", Agg: grid.Sum, Integer: true}}
	negZero := math.Copysign(0, -1)
	vec := map[byte][]float64{
		'A': {0.1, 3},
		'B': {2.5, 7},
		'C': {1e-7, 12},
		'Z': {0, 0},
		'z': {negZero, 0},
		'N': {math.Float64frombits(0x7ff8000000000001), 1},
		'n': {math.Float64frombits(0xfff8000000000000), 1},
	}
	// '.' is a null cell. The layout plants: repeats along the first row and
	// down the first column; a rectangle of B (rows 1–3, columns 2–3); -0
	// beside and under 0 (rows 3–4); two NaN payloads side by side (row 5);
	// A B A runs across (row 5) and down (column 0, rows 4–6); zero vectors
	// beside and under null cells, one under a null under B (column 1, rows
	// 1–3); and a vector repeated across a null cell (column 0, rows 7–9).
	layout := []string{
		"AAAA.Z",
		"ABBB.Z",
		"A.BBCZ",
		"AZBBZz",
		"BACzZZ",
		"NnNABA",
		"BAnBAC",
		"A.C.AB",
		"...B..",
		"AC.BCC",
	}
	g := grid.New(len(layout), len(layout[0]), attrs)
	for r, line := range layout {
		for c := range line {
			if fv, ok := vec[line[c]]; ok {
				g.SetVector(r, c, fv)
			}
		}
	}
	checkWriteCSV(t, "planted", g)

	// Reconstructed grids, where every cell of a group repeats its vector:
	// Algorithm 1 partitions at random thresholds over grids with null
	// cells, and homogeneous blocks that mix null and valid cells.
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 12; trial++ {
		ds := datagen.All(int64(trial), 12+rng.Intn(20), 12+rng.Intn(20))[trial%6]
		src := ds.Grid.Clone()
		for r := 0; r < src.Rows; r++ {
			for c := 0; c < src.Cols; c++ {
				if rng.Float64() < 0.1 {
					src.SetNull(r, c)
				}
			}
		}
		rp, err := core.Repartition(src, core.Options{Threshold: rng.Float64() * 0.3, Schedule: core.ScheduleGeometric})
		if err != nil {
			t.Fatal(err)
		}
		checkWriteCSV(t, ds.Name+" repartitioned", rp.ReconstructGrid())
		hp, err := core.Homogeneous(src, 2+rng.Intn(3), core.MergeMode(trial%3))
		if err != nil {
			t.Fatal(err)
		}
		checkWriteCSV(t, ds.Name+" homogeneous", hp.ReconstructGrid())
	}
}

// taxiMulti1024 returns the 1024² taxi-multi grid of the given seed raw,
// where few vectors repeat, and reconstructed at θ 0.1, where most cells
// repeat a neighbour's.
func taxiMulti1024(tb testing.TB, seed int64) []namedGrid {
	tb.Helper()
	raw := datagen.TaxiTripsMulti(seed, 1024, 1024).Grid
	rp, err := core.Repartition(raw, core.Options{Threshold: 0.1, Schedule: core.ScheduleGeometric})
	if err != nil {
		tb.Fatal(err)
	}
	return []namedGrid{{"raw", raw}, {"reconstructed", rp.ReconstructGrid()}}
}

type namedGrid struct {
	name string
	g    *grid.Grid
}

// TestReadCSVMatchesReferenceAt1024: on the 1024² taxi-multi input the batch
// benchmark reads, and on the output a run writes from it, ReadCSV returns
// the grid the encoding/csv reference returns, bit for bit. WriteCSV writes
// each cell once, so every value decodes to ParseFloat's bits.
func TestReadCSVMatchesReferenceAt1024(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and repartitions a 1024² grid")
	}
	for _, tc := range taxiMulti1024(t, 42) {
		var buf bytes.Buffer
		if err := tc.g.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		got, err := grid.ReadCSV(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		want, err := grid.ReferenceReadCSV(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < want.Rows; r++ {
			for c := 0; c < want.Cols; c++ {
				if got.Valid(r, c) != want.Valid(r, c) {
					t.Fatalf("%s: cell (%d,%d) valid %v, reference %v", tc.name, r, c, got.Valid(r, c), want.Valid(r, c))
				}
				for k := range want.Attrs {
					if v, w := got.At(r, c, k), want.At(r, c, k); math.Float64bits(v) != math.Float64bits(w) {
						t.Fatalf("%s: (%d,%d,%d) = %v, reference %v", tc.name, r, c, k, v, w)
					}
				}
			}
		}
	}
}

// BenchmarkWriteCSV encodes the 1024² taxi-multi grid raw and
// reconstructed.
func BenchmarkWriteCSV(b *testing.B) {
	for _, bc := range taxiMulti1024(b, 1) {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := bc.g.WriteCSV(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReadCSV reads the CSV of the batch benchmark's 1024² taxi-multi
// input and of the grid a run reconstructs from it.
func BenchmarkReadCSV(b *testing.B) {
	for _, bc := range taxiMulti1024(b, 42) {
		var buf bytes.Buffer
		if err := bc.g.WriteCSV(&buf); err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(buf.Len()))
			for i := 0; i < b.N; i++ {
				if _, err := grid.ReadCSV(bytes.NewReader(buf.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
