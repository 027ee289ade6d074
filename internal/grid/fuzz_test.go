package grid

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzReadCSV hardens the CSV parser: arbitrary input must either parse into
// a structurally sound grid of finite values or return an error — never
// panic, never produce a grid whose accessors misbehave — and a parsed grid
// must re-encode to the bytes of its first encoding.
func FuzzReadCSV(f *testing.F) {
	f.Add("#grid,2,2\nrow,col,a:sum:int\n0,0,5\n1,1,7\n")
	f.Add("#grid,1,1\nrow,col,x:average\n")
	f.Add("#grid,0,0\nrow,col,a\n")
	f.Add("garbage")
	f.Add("#grid,2,2\nrow,col,a:cat\n0,0,1\n")
	f.Add("#grid,-1,2\nrow,col,a\n")
	f.Add("#grid,2,2\nrow,col,a,b\n0,0,NaN,1\n")
	f.Add("#grid,2,2\nrow,col,a,b\n0,0,1,2\n1,0,1,2\n1,1,-0,+Inf\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadCSV(strings.NewReader(input))
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
