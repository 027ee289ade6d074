package grid

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
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

// readBufSize is the size of ReadCSV's input buffer, and so the longest data
// line its fast path takes.
const readBufSize = 64 << 10

// ReadCSV parses a grid previously written by WriteCSV. A NaN or infinite
// value is an error naming its line, as it is for a record in FromRecords:
// loaded, it would make the information loss of every rung NaN, and
// a run on the grid would return the identity partition without an error.
// Errors name physical lines, counting blank lines and the line breaks
// inside quoted fields. A header that declares more than 2^28 cells, or
// more than 2^28 values (cells × attributes), is rejected before the grid
// is allocated, so a short hostile header cannot ask for gigabytes.
//
// encoding/csv reads the two header records. Data rows are split by hand:
// each line is one record, its fields separated by commas, and its values
// decoded by parseDecimal. A line that holds a quote or does not fit the
// buffer hands that line and the rest of the input to encoding/csv, so
// quoted rows still parse; the rows WriteCSV writes never need quoting.
// setRow checks the fields of every row on both paths.
func ReadCSV(r io.Reader) (*Grid, error) {
	// csv.NewReader keeps br as its own buffer, and encoding/csv reads one
	// line per ReadSlice, so the data rows start at br's next byte.
	br := bufio.NewReaderSize(r, readBufSize)
	g, line, err := readHeader(newCSVReader(br))
	if err != nil {
		return nil, err
	}
	fv := make([]float64, len(g.Attrs))
	fields := make([][]byte, 0, 2+len(g.Attrs))
	for ; ; line++ {
		b, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull || bytes.IndexByte(b, '"') >= 0 {
			rest := io.MultiReader(bytes.NewReader(bytes.Clone(b)), br)
			if err := readCSVRows(g, fv, rest, line); err != nil {
				return nil, err
			}
			return g, nil
		}
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("grid: line %d: %w", line, err)
		}
		// Drop the line ending as encoding/csv does: \n or \r\n, or one \r
		// before EOF.
		if n := len(b); n > 0 && b[n-1] == '\n' {
			b = b[:n-1]
			if n > 1 && b[n-2] == '\r' {
				b = b[:n-2]
			}
		} else if n > 0 && b[n-1] == '\r' {
			b = b[:n-1]
		}
		if len(b) > 0 { // encoding/csv skips blank lines
			fields = fields[:0]
			for {
				i := bytes.IndexByte(b, ',')
				if i < 0 {
					break
				}
				fields = append(fields, b[:i])
				b = b[i+1:]
			}
			if err := setRow(g, fv, line, append(fields, b)); err != nil {
				return nil, err
			}
		}
		if err == io.EOF {
			return g, nil
		}
	}
}

func newCSVReader(r io.Reader) *csv.Reader {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	// Each record is fully consumed before the next Read, so Read may reuse
	// the record slice.
	cr.ReuseRecord = true
	return cr
}

// readHeader reads the metadata and column header records and returns the
// empty grid they describe and the physical line after the header.
func readHeader(cr *csv.Reader) (*Grid, int, error) {
	meta, err := cr.Read()
	if err != nil {
		return nil, 0, fmt.Errorf("grid: reading metadata: %w", err)
	}
	if len(meta) != 3 || meta[0] != "#grid" {
		return nil, 0, fmt.Errorf("grid: bad metadata record %q", meta)
	}
	rows, err := strconv.Atoi(meta[1])
	if err != nil {
		return nil, 0, fmt.Errorf("grid: bad row count %q: %w", meta[1], err)
	}
	cols, err := strconv.Atoi(meta[2])
	if err != nil {
		return nil, 0, fmt.Errorf("grid: bad column count %q: %w", meta[2], err)
	}
	if rows < 0 || cols < 0 {
		return nil, 0, fmt.Errorf("grid: negative dimensions %dx%d", rows, cols)
	}
	// Refuse absurd allocations from hostile input: at most 2^28 cells, and
	// 2^28 values once the header gives the attributes.
	const maxCells = 1 << 28
	if rows > 0 && cols > maxCells/max(rows, 1) {
		return nil, 0, fmt.Errorf("grid: dimensions %dx%d exceed the size limit", rows, cols)
	}
	header, err := cr.Read()
	if err != nil {
		return nil, 0, fmt.Errorf("grid: reading header: %w", err)
	}
	if len(header) < 3 || header[0] != "row" || header[1] != "col" {
		return nil, 0, fmt.Errorf("grid: bad header %q", header)
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
				return nil, 0, fmt.Errorf("grid: unknown attribute tag %q in column %q", p, col)
			}
		}
		attrs = append(attrs, a)
	}
	if cells := rows * cols; cells > 0 && len(attrs) > maxCells/cells {
		return nil, 0, fmt.Errorf("grid: %d cells of %d attributes exceed the size limit", cells, len(attrs))
	}
	return New(rows, cols, attrs), lastLine(cr, header) + 1, nil
}

// lastLine returns the physical line on which rec, the record cr read last,
// ends: its last field starts on the line FieldPos names, and a quoted field
// holds one \n for each line break inside it.
func lastLine(cr *csv.Reader, rec []string) int {
	line, _ := cr.FieldPos(len(rec) - 1)
	return line + strings.Count(rec[len(rec)-1], "\n")
}

// readCSVRows reads the data records of r through encoding/csv into g. The
// first line of r is physical line first of the input; the lines FieldPos
// and a *csv.ParseError name are shifted to match.
func readCSVRows(g *Grid, fv []float64, r io.Reader, first int) error {
	cr := newCSVReader(r)
	shift, next := first-1, first
	var fields [][]byte
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		var pe *csv.ParseError
		if errors.As(err, &pe) {
			pe.StartLine += shift
			pe.Line += shift
			next = pe.StartLine
		}
		if err != nil {
			return fmt.Errorf("grid: line %d: %w", next, err)
		}
		line, _ := cr.FieldPos(0)
		fields = fields[:0]
		for _, f := range rec {
			fields = append(fields, []byte(f))
		}
		if err := setRow(g, fv, shift+line, fields); err != nil {
			return err
		}
		next = shift + lastLine(cr, rec) + 1
	}
}

// setRow checks the fields of the data record that starts on physical line
// line and stores its cell's values in g, using fv as scratch.
func setRow(g *Grid, fv []float64, line int, rec [][]byte) error {
	if len(rec) != 2+len(fv) {
		return fmt.Errorf("grid: line %d: %d fields, want %d", line, len(rec), 2+len(fv))
	}
	r, err := strconv.Atoi(string(rec[0]))
	if err != nil {
		return fmt.Errorf("grid: line %d: bad row %q: %w", line, rec[0], err)
	}
	c, err := strconv.Atoi(string(rec[1]))
	if err != nil {
		return fmt.Errorf("grid: line %d: bad col %q: %w", line, rec[1], err)
	}
	if !g.InBounds(r, c) {
		return fmt.Errorf("grid: line %d: cell (%d,%d) outside %dx%d", line, r, c, g.Rows, g.Cols)
	}
	for k := range fv {
		v, err := parseDecimal(rec[2+k])
		if err != nil {
			return fmt.Errorf("grid: line %d: bad value %q: %w", line, rec[2+k], err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("grid: line %d: value %d (%s) is %v, want a finite number", line, k, g.Attrs[k].Name, v)
		}
		fv[k] = v
	}
	g.SetVector(r, c, fv)
	return nil
}
