package grid

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
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
// encoded straight into one reused line buffer. Their fields are integers
// and strconv 'g' floats, which never need quoting, so the bytes are the
// ones encoding/csv would write.
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
	var line []byte
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			if !g.Valid(r, c) {
				continue
			}
			line = strconv.AppendInt(line[:0], int64(r), 10)
			line = append(line, ',')
			line = strconv.AppendInt(line, int64(c), 10)
			for _, v := range g.Vector(r, c) {
				line = append(line, ',')
				line = strconv.AppendFloat(line, v, 'g', -1, 64)
			}
			line = append(line, '\n')
			if _, err := bw.Write(line); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadCSV parses a grid previously written by WriteCSV.
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
			fv[k] = v
		}
		g.SetVector(r, c, fv)
	}
	return g, nil
}
