package grid

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WriteCSV serializes g as CSV. The first record is a metadata header
//
//	#grid,<rows>,<cols>
//
// followed by a column header "row,col,<attr>[:sum|:average][:int]..." and
// one record per valid cell. Null cells are omitted and reconstructed as
// null on read.
//
// The two header records go through encoding/csv; the cell records are
// encoded straight into one reused buffer per row. Their fields are integers
// and strconv 'g' floats, which never need quoting, so the bytes are the
// ones encoding/csv would write.
//
// A reconstructed grid gives every cell of a group the same vector, so most
// cells repeat a neighbour's values. A valid cell whose vector has the same
// bits as the valid cell directly above copies that cell's value text from
// the previous row's buffer; failing that, it tries the valid cell directly
// to its left; only then are its values formatted. Equal bits always format
// to equal text, so the bytes do not depend on the reuse. Bits, not ==, so
// -0 beside 0 and differing NaN payloads keep their own text; validity
// first, because a null cell stores zeros and its offsets are stale.
func (g *Grid) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	if err := cw.Write([]string{"#grid", strconv.Itoa(g.Rows), strconv.Itoa(g.Cols)}); err != nil {
		return err
	}
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
	if err := cw.Write(header); err != nil {
		return err
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	// row holds the records of row r and above those of row r-1; the text
	// ",v1,…,vp" of valid cell (r, c) is row[at[c]:end[c]], of (r-1, c)
	// above[atAbove[c]:endAbove[c]].
	var row, above []byte
	at, end := make([]int, g.Cols), make([]int, g.Cols)
	atAbove, endAbove := make([]int, g.Cols), make([]int, g.Cols)
	p := len(g.Attrs)
	for r := 0; r < g.Rows; r++ {
		row = row[:0]
		for c := 0; c < g.Cols; c++ {
			i := r*g.Cols + c
			if !g.valid[i] {
				continue
			}
			row = strconv.AppendInt(row, int64(r), 10)
			row = append(row, ',')
			row = strconv.AppendInt(row, int64(c), 10)
			start := len(row)
			fv := g.data[i*p : i*p+p]
			switch {
			case r > 0 && g.valid[i-g.Cols] && sameBits(fv, g.data[(i-g.Cols)*p:]):
				row = append(row, above[atAbove[c]:endAbove[c]]...)
			case c > 0 && g.valid[i-1] && sameBits(fv, g.data[(i-1)*p:]):
				row = append(row, row[at[c-1]:end[c-1]]...)
			default:
				for _, v := range fv {
					row = append(row, ',')
					row = strconv.AppendFloat(row, v, 'g', -1, 64)
				}
			}
			at[c], end[c] = start, len(row)
			row = append(row, '\n')
		}
		if _, err := bw.Write(row); err != nil {
			return err
		}
		row, above = above, row
		at, atAbove = atAbove, at
		end, endAbove = endAbove, end
	}
	return bw.Flush()
}

// sameBits reports whether the first len(a) floats of b have the bits of a.
// It folds every difference into one word instead of returning at the first
// one: on a raw grid neighbours often share their leading values, so an
// early exit would sit at a data-dependent position.
func sameBits(a, b []float64) bool {
	b = b[:len(a)]
	var diff uint64
	for k, v := range a {
		diff |= math.Float64bits(v) ^ math.Float64bits(b[k])
	}
	return diff == 0
}

// ReadCSV parses a grid previously written by WriteCSV. A NaN or infinite
// value is an error naming its line, as it is for a record in FromRecords:
// loaded, it would make the information loss of every rung NaN, and
// a run on the grid would return the identity partition without an error.
func ReadCSV(r io.Reader) (*Grid, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	// Each record is fully consumed before the next Read, so Read may reuse
	// the record slice.
	cr.ReuseRecord = true
	meta, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("grid: reading metadata: %w", err)
	}
	if len(meta) != 3 || meta[0] != "#grid" {
		return nil, fmt.Errorf("grid: bad metadata record %q", meta)
	}
	rows, err := strconv.Atoi(meta[1])
	if err != nil {
		return nil, fmt.Errorf("grid: bad row count %q: %w", meta[1], err)
	}
	cols, err := strconv.Atoi(meta[2])
	if err != nil {
		return nil, fmt.Errorf("grid: bad column count %q: %w", meta[2], err)
	}
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("grid: negative dimensions %dx%d", rows, cols)
	}
	const maxCells = 1 << 28 // refuse absurd allocations from hostile input
	if rows > 0 && cols > maxCells/max(rows, 1) {
		return nil, fmt.Errorf("grid: dimensions %dx%d exceed the size limit", rows, cols)
	}
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("grid: reading header: %w", err)
	}
	if len(header) < 3 || header[0] != "row" || header[1] != "col" {
		return nil, fmt.Errorf("grid: bad header %q", header)
	}
	attrs := make([]Attribute, 0, len(header)-2)
	for _, col := range header[2:] {
		parts := strings.Split(col, ":")
		a := Attribute{Name: parts[0], Agg: Average}
		for _, p := range parts[1:] {
			switch p {
			case "sum":
				a.Agg = Sum
			case "average":
				a.Agg = Average
			case "int":
				a.Integer = true
			case "cat":
				a.Categorical = true
			default:
				return nil, fmt.Errorf("grid: unknown attribute tag %q in column %q", p, col)
			}
		}
		attrs = append(attrs, a)
	}
	g := New(rows, cols, attrs)
	fv := make([]float64, len(attrs))
	for line := 3; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("grid: line %d: %w", line, err)
		}
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
			return nil, fmt.Errorf("grid: line %d: cell (%d,%d) outside %dx%d", line, r, c, rows, cols)
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
	}
	return g, nil
}
