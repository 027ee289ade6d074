package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFromRowsAndAccessors(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if err != nil {
		t.Fatalf("FromRows: %v", err)
	}
	if m.Rows != 2 || m.Cols != 3 {
		t.Fatalf("got %dx%d, want 2x3", m.Rows, m.Cols)
	}
	if m.At(1, 2) != 6 {
		t.Errorf("At(1,2) = %v, want 6", m.At(1, 2))
	}
	m.Set(0, 1, 9)
	if m.At(0, 1) != 9 {
		t.Errorf("Set/At round trip failed: %v", m.At(0, 1))
	}
	if got := m.Row(1); got[0] != 4 || got[1] != 5 || got[2] != 6 {
		t.Errorf("Row(1) = %v", got)
	}
}

func TestFromRowsRagged(t *testing.T) {
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("want error for ragged rows")
	}
}

func TestFromRowsEmpty(t *testing.T) {
	m, err := FromRows(nil)
	if err != nil {
		t.Fatalf("FromRows(nil): %v", err)
	}
	if m.Rows != 0 || m.Cols != 0 {
		t.Errorf("got %dx%d, want 0x0", m.Rows, m.Cols)
	}
}

func TestTranspose(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.T()
	if mt.Rows != 3 || mt.Cols != 2 {
		t.Fatalf("T dims %dx%d", mt.Rows, mt.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Errorf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMul(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	c, err := Mul(a, b)
	if err != nil {
		t.Fatalf("Mul: %v", err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Errorf("Mul(%d,%d) = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
	if _, err := Mul(a, NewDense(3, 2)); err == nil {
		t.Error("want dimension mismatch error")
	}
}

func TestMulVec(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	got, err := MulVec(a, []float64{1, 1})
	if err != nil {
		t.Fatalf("MulVec: %v", err)
	}
	if got[0] != 3 || got[1] != 7 {
		t.Errorf("MulVec = %v, want [3 7]", got)
	}
	if _, err := MulVec(a, []float64{1}); err == nil {
		t.Error("want dimension mismatch error")
	}
}

func TestAtAMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewDense(7, 4)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	want, _ := Mul(a.T(), a)
	got := AtA(a)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if !almostEqual(got.At(i, j), want.At(i, j), 1e-12) {
				t.Errorf("AtA(%d,%d) = %v, want %v", i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

func TestAtVec(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	got, err := AtVec(a, []float64{1, 0, 2})
	if err != nil {
		t.Fatalf("AtVec: %v", err)
	}
	if got[0] != 11 || got[1] != 14 {
		t.Errorf("AtVec = %v, want [11 14]", got)
	}
}

func TestSolveLU(t *testing.T) {
	a, _ := FromRows([][]float64{{2, 1, -1}, {-3, -1, 2}, {-2, 1, 2}})
	x, err := SolveLU(a, []float64{8, -11, -3})
	if err != nil {
		t.Fatalf("SolveLU: %v", err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !almostEqual(x[i], want[i], 1e-10) {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestSolveLUSingular(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := SolveLU(a, []float64{1, 2}); err == nil {
		t.Fatal("want ErrSingular for singular matrix")
	}
}

func TestSolveCholeskySPD(t *testing.T) {
	// a = bᵀb + I is SPD for any b.
	rng := rand.New(rand.NewSource(2))
	b := NewDense(6, 4)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := AtA(b)
	for j := 0; j < 4; j++ {
		a.Set(j, j, a.At(j, j)+1)
	}
	rhs := []float64{1, -2, 3, 0.5}
	x, err := SolveCholesky(a, rhs)
	if err != nil {
		t.Fatalf("SolveCholesky: %v", err)
	}
	ax, _ := MulVec(a, x)
	for i := range rhs {
		if !almostEqual(ax[i], rhs[i], 1e-8) {
			t.Errorf("a·x[%d] = %v, want %v", i, ax[i], rhs[i])
		}
	}
}

func TestSolveCholeskyNotPD(t *testing.T) {
	a, _ := FromRows([][]float64{{0, 0}, {0, 0}})
	if _, err := SolveCholesky(a, []float64{0, 0}); err == nil {
		t.Fatal("want error for non-PD matrix")
	}
}

func TestLeastSquaresRecoversCoefficients(t *testing.T) {
	// y = 3 + 2·x1 − x2 exactly.
	rng := rand.New(rand.NewSource(3))
	n := 50
	a := NewDense(n, 3)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x1, x2 := rng.Float64()*10, rng.Float64()*10
		a.Set(i, 0, 1)
		a.Set(i, 1, x1)
		a.Set(i, 2, x2)
		y[i] = 3 + 2*x1 - x2
	}
	beta, err := LeastSquares(a, y)
	if err != nil {
		t.Fatalf("LeastSquares: %v", err)
	}
	want := []float64{3, 2, -1}
	for i := range want {
		if !almostEqual(beta[i], want[i], 1e-6) {
			t.Errorf("beta[%d] = %v, want %v", i, beta[i], want[i])
		}
	}
}

func TestSolversAgree(t *testing.T) {
	// Property: LU and Cholesky agree on random SPD systems.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + int(rng.Int31n(5))
		b := NewDense(n+2, n)
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		a := AtA(b)
		for j := 0; j < n; j++ {
			a.Set(j, j, a.At(j, j)+0.5)
		}
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		x1, err1 := SolveLU(a, rhs)
		x2, err2 := SolveCholesky(a, rhs)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range x1 {
			if !almostEqual(x1[i], x2[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestVectorHelpers(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
}
