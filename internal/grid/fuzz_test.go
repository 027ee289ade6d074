package grid

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
)

// referenceReadCSV is ReadCSV as it was before data rows were split by hand:
// every record goes through encoding/csv and every number through strconv.
// Its errors name the physical line a record starts on.
func referenceReadCSV(r io.Reader) (*Grid, error) {
	cr := newCSVReader(r)
	g, next, err := readHeader(cr)
	if err != nil {
		return nil, err
	}
	attrs := g.Attrs
	fv := make([]float64, len(attrs))
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return g, nil
		}
		var pe *csv.ParseError
		if errors.As(err, &pe) {
			next = pe.StartLine
		}
		if err != nil {
			return nil, fmt.Errorf("grid: line %d: %w", next, err)
		}
		line, _ := cr.FieldPos(0)
		if len(rec) != 2+len(attrs) {
			return nil, fmt.Errorf("grid: line %d: %d fields, want %d", line, len(rec), 2+len(attrs))
		}
		r, err := strconv.Atoi(rec[0])
		if err != nil {
			return nil, fmt.Errorf("grid: line %d: bad row %q: %w", line, rec[0], err)
		}
		c, err := strconv.Atoi(rec[1])
		if err != nil {
			return nil, fmt.Errorf("grid: line %d: bad col %q: %w", line, rec[1], err)
		}
		if !g.InBounds(r, c) {
			return nil, fmt.Errorf("grid: line %d: cell (%d,%d) outside %dx%d", line, r, c, g.Rows, g.Cols)
		}
		for k := range attrs {
			v, err := strconv.ParseFloat(rec[2+k], 64)
			if err != nil {
				return nil, fmt.Errorf("grid: line %d: bad value %q: %w", line, rec[2+k], err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("grid: line %d: value %d (%s) is %v, want a finite number", line, k, attrs[k].Name, v)
			}
			fv[k] = v
		}
		g.SetVector(r, c, fv)
		next = lastLine(cr, rec) + 1
	}
}

// checkReadCSV reads input with ReadCSV, asserts that referenceReadCSV
// agrees, and returns ReadCSV's result.
func checkReadCSV(t *testing.T, input string) (*Grid, error) {
	t.Helper()
	g, err := ReadCSV(strings.NewReader(input))
	matchReference(t, input, g, err)
	return g, err
}

// matchReference asserts that referenceReadCSV reads input as ReadCSV did,
// returning g or err: the same error text, or a grid that writes the same
// bytes.
func matchReference(t *testing.T, input string, g *Grid, err error) {
	t.Helper()
	want, werr := referenceReadCSV(strings.NewReader(input))
	if err != nil || werr != nil {
		if err == nil || werr == nil || err.Error() != werr.Error() {
			t.Fatalf("ReadCSV(%q)\nerror     %v\nreference %v", input, err, werr)
		}
		return
	}
	var got, ref bytes.Buffer
	if err := g.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if err := want.WriteCSV(&ref); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), ref.Bytes()) {
		t.Fatalf("ReadCSV(%q) read\n%s\nthe reference read\n%s", input, got.Bytes(), ref.Bytes())
	}
}

// longLine is a data line longer than ReadCSV's buffer: its value has that
// many leading zeros.
var longLine = "0,1," + strings.Repeat("0", readBufSize) + "2.5\n"

// declaresOver reports whether the two header records of input declare a
// grid of more than limit values (rows × cols × attributes).
func declaresOver(input string, limit int) bool {
	cr := newCSVReader(strings.NewReader(input))
	meta, err := cr.Read()
	if err != nil || len(meta) != 3 {
		return false
	}
	rows, err1 := strconv.Atoi(meta[1])
	cols, err2 := strconv.Atoi(meta[2])
	header, err := cr.Read()
	if err1 != nil || err2 != nil || err != nil || rows <= 0 || cols <= 0 {
		return false
	}
	return rows > limit/cols/max(len(header)-2, 1)
}

// FuzzReadCSV hardens the CSV parser: arbitrary input must either parse into
// a structurally sound grid of finite values or return an error — never
// panic, never produce a grid whose accessors misbehave — a parsed grid
// must re-encode to the bytes of its first encoding, and the hand-split
// reader must agree with the encoding/csv reference on every input that
// declares at most 2^22 values.
func FuzzReadCSV(f *testing.F) {
	f.Add("#grid,2,2\nrow,col,a:sum:int\n0,0,5\n1,1,7\n")
	f.Add("#grid,1,1\nrow,col,x:average\n")
	f.Add("#grid,0,0\nrow,col,a\n")
	f.Add("garbage")
	f.Add("#grid,2,2\nrow,col,a:cat\n0,0,1\n")
	f.Add("#grid,-1,2\nrow,col,a\n")
	f.Add("#grid,2,2\nrow,col,a,b\n0,0,NaN,1\n")
	f.Add("#grid,2,2\nrow,col,a,b\n0,0,1,2\n1,0,1,2\n1,1,-0,+Inf\n")
	f.Add("#grid,2,2\nrow,col,a\n\"0\",\"1\",\"2.5\"\n1,1,3\n")
	f.Add("#grid,2,2\nrow,col,\"a\nb\"\n0,0,1\n0,1,\"2\n3\"\n")
	f.Add("#grid,2,2\r\nrow,col,a\r\n0,0,1.25\r\n\r\n1,1,-0.5\r\n")
	f.Add("#grid,2,2\n\nrow,col,a\n\n0,0,1\n\n\n1,1,x\n")
	f.Add("#grid,2,2\nrow,col,a\n0,0,1\n1,1,2")
	f.Add("#grid,2,2\nrow,col,a\n0,0,1\n1,1,2\r")
	f.Add("#grid,2,2\nrow,col,a\n0,0,1\n" + longLine + "1,1,NaN\n")
	f.Add("#grid,2048,4096\nrow,col,a\n2047,4095,1.5\n") // 2^23 values: no reference
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadCSV(strings.NewReader(input))
		// The reference allocates a second grid; past 2^22 values that would
		// add hundreds of megabytes to an execution, so only ReadCSV's own
		// checks run on such an input.
		if !declaresOver(input, 1<<22) {
			matchReference(t, input, g, err)
		}
		if err != nil {
			return
		}
		if g.Rows < 0 || g.Cols < 0 {
			t.Fatalf("negative dimensions %dx%d accepted", g.Rows, g.Cols)
		}
		// Every accessor over the declared ranges must be safe, and every
		// value finite.
		for r := 0; r < g.Rows; r++ {
			for c := 0; c < g.Cols; c++ {
				_ = g.Valid(r, c)
				for k := 0; k < g.NumAttrs(); k++ {
					if v := g.At(r, c, k); math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("(%d,%d,%d) parsed as %v", r, c, k, v)
					}
				}
			}
		}
		// A parsed grid must round-trip to the same bytes.
		var first, second bytes.Buffer
		if err := g.WriteCSV(&first); err != nil {
			t.Fatalf("round-trip write failed: %v", err)
		}
		back, err := ReadCSV(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("round-trip read failed: %v", err)
		}
		if err := back.WriteCSV(&second); err != nil {
			t.Fatalf("second write failed: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-encoding changed the bytes:\n%s\nthen\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// TestReadCSVFallback: lines that hold a quote or outgrow the buffer go to
// encoding/csv with the rest of the input. Every case must read as the
// reference reads it, and the valid ones must hold the cells written.
func TestReadCSVFallback(t *testing.T) {
	const head = "#grid,2,2\nrow,col,a\n"
	cases := []struct {
		name, input string
		cells       map[[2]int]float64 // nil: the input is an error
	}{
		{"quoted data row", head + "0,0,1\n\"0\",\"1\",\"2.5\"\n1,1,3\n", map[[2]int]float64{{0, 0}: 1, {0, 1}: 2.5, {1, 1}: 3}},
		{"quoted rows to the end", head + "0,0,\"-0.5\"\n1,0,4\n1,1,\"1e3\"", map[[2]int]float64{{0, 0}: -0.5, {1, 0}: 4, {1, 1}: 1000}},
		{"quoted value spanning lines", head + "0,0,1\n0,1,\"2\n3\"\n", nil},
		{"bare quote", head + "0,0,1\n\n0,1,2\"\n", nil},
		{"CRLF", "#grid,2,2\r\nrow,col,a\r\n0,0,1.25\r\n1,1,-7\r\n", map[[2]int]float64{{0, 0}: 1.25, {1, 1}: -7}},
		{"CRLF and a quoted row", "#grid,2,2\r\nrow,col,a\r\n0,0,1\r\n\"1\",0,2\r\n\r\n1,1,3\r\n", map[[2]int]float64{{0, 0}: 1, {1, 0}: 2, {1, 1}: 3}},
		{"blank lines", "\n#grid,2,2\n\nrow,col,a\n\n\n0,0,1\n\n1,1,2\n\n", map[[2]int]float64{{0, 0}: 1, {1, 1}: 2}},
		{"missing final newline", head + "0,0,1\n1,1,2", map[[2]int]float64{{0, 0}: 1, {1, 1}: 2}},
		{"trailing CR at EOF", head + "0,0,1\n1,1,2\r", map[[2]int]float64{{0, 0}: 1, {1, 1}: 2}},
		{"two CRs at EOF", head + "0,0,1\n1,1,2\r\r", nil},
		{"CR inside a value", head + "0,0,1\r2\n", nil},
		{"line longer than the buffer", head + "0,0,1\n" + longLine + "1,1,3\n", map[[2]int]float64{{0, 0}: 1, {0, 1}: 2.5, {1, 1}: 3}},
		{"error after a long line", head + longLine + "\n1,1,NaN\n", nil},
	}
	for _, tc := range cases {
		g, err := checkReadCSV(t, tc.input)
		if tc.cells == nil {
			if err == nil {
				t.Errorf("%s: read a grid, want an error", tc.name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		for r := 0; r < g.Rows; r++ {
			for c := 0; c < g.Cols; c++ {
				want, ok := tc.cells[[2]int{r, c}]
				if g.Valid(r, c) != ok || ok && g.At(r, c, 0) != want {
					t.Errorf("%s: cell (%d,%d) = %v (valid %v), want %v (valid %v)", tc.name, r, c, g.At(r, c, 0), g.Valid(r, c), want, ok)
				}
			}
		}
	}
}

// TestReadCSVPhysicalLines: an error names the physical line its record
// starts on, counting blank lines, CRLF lines and the line breaks inside
// quoted fields, on the hand-split path and after the switch to
// encoding/csv alike. ReadCSV used to count records.
func TestReadCSVPhysicalLines(t *testing.T) {
	for _, tc := range []struct{ input, want string }{
		{"#grid,2,2\nrow,col,a\n\n0,0,NaN\n",
			"grid: line 4: value 0 (a) is NaN, want a finite number"},
		{"#grid,2,2\nrow,col,\"a\nb\"\n0,0,1\n0,1,NaN\n",
			"grid: line 5: value 0 (a\nb) is NaN, want a finite number"},
		{"#grid,2,2\r\n\r\nrow,col,a\r\n0,0,1\r\n\r\n1,1,x\r\n",
			`grid: line 6: bad value "x": strconv.ParseFloat: parsing "x": invalid syntax`},
		{"#grid,2,2\nrow,col,\"a\nb\"\n\n0,0,1\n0,1,\"2\n3\"\n",
			`grid: line 6: bad value "2\n3": strconv.ParseFloat: parsing "2\n3": invalid syntax`},
		{"#grid,2,2\nrow,col,a\n\"0\",\"0\",\"1\n\"\n\n0,1,2,3\n",
			"grid: line 3: bad value \"1\\n\": strconv.ParseFloat: parsing \"1\\n\": invalid syntax"},
		{"#grid,2,2\nrow,col,a\n\"0\",0,1\n\n0,1,2,3\n",
			"grid: line 5: 4 fields, want 3"},
		{"#grid,2,2\nrow,col,a\n\"0\",0,1\n\"0\",\"1\",\"2\n\n3\"x\n",
			`grid: line 4: record on line 4; parse error on line 6, column 2: extraneous or missing " in quoted-field`},
		{"#grid,2,2\r\nrow,col,a\r\n\r\n0,0,1\r\n0,1,2\"\r\n",
			`grid: line 5: parse error on line 5, column 6: bare " in non-quoted-field`},
	} {
		_, err := checkReadCSV(t, tc.input)
		if err == nil || err.Error() != tc.want {
			t.Errorf("ReadCSV(%q)\n= %v\nwant %s", tc.input, err, tc.want)
		}
	}
}
