package mat

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFromRowsAndAccessors(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 2 || m.Cols != 3 {
		t.Fatalf("dims = %dx%d", m.Rows, m.Cols)
	}
	if m.At(1, 2) != 6 {
		t.Errorf("At(1,2) = %v", m.At(1, 2))
	}
	m.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Errorf("Set failed")
	}
	if got := m.Row(1); got[0] != 4 || got[2] != 6 {
		t.Errorf("Row(1) = %v", got)
	}
}

func TestFromRowsRagged(t *testing.T) {
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged input should fail")
	}
}

func TestMul(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	c, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Errorf("c[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
	if _, err := a.Mul(NewDense(3, 3)); err == nil {
		t.Error("dimension mismatch should fail")
	}
}

func TestMulVec(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	v, err := a.MulVec([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 3 || v[1] != 7 {
		t.Errorf("MulVec = %v", v)
	}
	if _, err := a.MulVec([]float64{1}); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestTranspose(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.T()
	if at.Rows != 3 || at.Cols != 2 {
		t.Fatalf("T dims = %dx%d", at.Rows, at.Cols)
	}
	if at.At(2, 1) != 6 || at.At(0, 0) != 1 {
		t.Errorf("T values wrong")
	}
}

func TestScaleAdd(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b := a.Clone()
	a.Scale(2)
	if a.At(1, 1) != 8 {
		t.Errorf("Scale: %v", a.At(1, 1))
	}
	if err := a.Add(b); err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 3 {
		t.Errorf("Add: %v", a.At(0, 0))
	}
	if err := a.Add(NewDense(1, 1)); err == nil {
		t.Error("Add mismatch should fail")
	}
}

func TestIsSymmetric(t *testing.T) {
	s, _ := FromRows([][]float64{{1, 2}, {2, 1}})
	if !s.IsSymmetric(0) {
		t.Error("symmetric matrix reported asymmetric")
	}
	a, _ := FromRows([][]float64{{1, 2}, {3, 1}})
	if a.IsSymmetric(0.5) {
		t.Error("asymmetric matrix reported symmetric")
	}
	if NewDense(2, 3).IsSymmetric(0) {
		t.Error("non-square cannot be symmetric")
	}
}

func TestSymEigenDiagonal(t *testing.T) {
	a, _ := FromRows([][]float64{{3, 0, 0}, {0, 1, 0}, {0, 0, 2}})
	eig, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, 1}
	for i, w := range want {
		if !almostEq(eig.Values[i], w, 1e-10) {
			t.Errorf("eigenvalue[%d] = %v, want %v", i, eig.Values[i], w)
		}
	}
}

func TestSymEigenKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a, _ := FromRows([][]float64{{2, 1}, {1, 2}})
	eig, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(eig.Values[0], 3, 1e-10) || !almostEq(eig.Values[1], 1, 1e-10) {
		t.Fatalf("eigenvalues = %v", eig.Values)
	}
	// Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
	v0 := []float64{eig.Vectors.At(0, 0), eig.Vectors.At(1, 0)}
	if !almostEq(math.Abs(v0[0]), 1/math.Sqrt2, 1e-8) || !almostEq(v0[0], v0[1], 1e-8) {
		t.Errorf("dominant eigenvector = %v", v0)
	}
}

func TestSymEigenReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 8
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	eig, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	// Check A v_k = lambda_k v_k for every k.
	for k := 0; k < n; k++ {
		v := make([]float64, n)
		for i := 0; i < n; i++ {
			v[i] = eig.Vectors.At(i, k)
		}
		av, _ := a.MulVec(v)
		for i := 0; i < n; i++ {
			if !almostEq(av[i], eig.Values[k]*v[i], 1e-7) {
				t.Fatalf("A v != lambda v at k=%d i=%d: %v vs %v", k, i, av[i], eig.Values[k]*v[i])
			}
		}
	}
	// Eigenvalues sorted descending.
	for k := 1; k < n; k++ {
		if eig.Values[k] > eig.Values[k-1]+1e-12 {
			t.Fatalf("eigenvalues not sorted: %v", eig.Values)
		}
	}
}

func TestSymEigenRejects(t *testing.T) {
	if _, err := SymEigen(NewDense(2, 3)); err == nil {
		t.Error("non-square should fail")
	}
	a, _ := FromRows([][]float64{{1, 5}, {0, 1}})
	if _, err := SymEigen(a); err == nil {
		t.Error("asymmetric should fail")
	}
}

func TestDoubleCenterKnown(t *testing.T) {
	// Points on a line at 0, 1, 3: squared distances known; the centered
	// Gram matrix must have zero row/col sums.
	d2, _ := FromRows([][]float64{
		{0, 1, 9},
		{1, 0, 4},
		{9, 4, 0},
	})
	b, err := DoubleCenter(d2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rowSum, colSum := 0.0, 0.0
		for j := 0; j < 3; j++ {
			rowSum += b.At(i, j)
			colSum += b.At(j, i)
		}
		if !almostEq(rowSum, 0, 1e-12) || !almostEq(colSum, 0, 1e-12) {
			t.Fatalf("row/col %d sums = %v / %v, want 0", i, rowSum, colSum)
		}
	}
	// B must be symmetric and PSD here (points are Euclidean).
	if !b.IsSymmetric(1e-12) {
		t.Fatal("centered matrix not symmetric")
	}
	eig, err := SymEigen(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range eig.Values {
		if v < -1e-9 {
			t.Fatalf("negative eigenvalue %v for Euclidean distances", v)
		}
	}
	// Gram eigenvalues of collinear points: one positive, rest ~0.
	if eig.Values[0] <= 0 || !almostEq(eig.Values[1], 0, 1e-9) {
		t.Fatalf("eigenvalues = %v, want one positive, rest 0", eig.Values)
	}
}

func TestDoubleCenterRejectsNonSquare(t *testing.T) {
	if _, err := DoubleCenter(NewDense(2, 3)); err == nil {
		t.Error("non-square should fail")
	}
}

// TestPowerIteration keeps its name from the solver TopEigen replaced: the
// dominant pair of a 2 x 2 matrix, through TopEigen.
func TestPowerIteration(t *testing.T) {
	a, _ := FromRows([][]float64{{4, 1}, {1, 3}})
	vals, vecs, err := TopEigen(a, 1, 500, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	// Dominant eigenvalue = (7 + sqrt(5)) / 2 ≈ 4.618
	want := (7 + math.Sqrt(5)) / 2
	if !almostEq(vals[0], want, 1e-6) {
		t.Errorf("lambda = %v, want %v", vals[0], want)
	}
	if v := []float64{vecs.At(0, 0), vecs.At(1, 0)}; !almostEq(norm(v), 1, 1e-9) {
		t.Errorf("eigenvector not unit: %v", norm(v))
	}
}

func TestTopEigenMatchesJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 12
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	// Make it PSD (A^T A) so power iteration has a clean dominant pair.
	psd, _ := a.T().Mul(a)
	full, err := SymEigen(psd)
	if err != nil {
		t.Fatal(err)
	}
	vals, _, err := TopEigen(psd, 2, 2000, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		if !almostEq(vals[k], full.Values[k], 1e-5*(1+math.Abs(full.Values[k]))) {
			t.Errorf("TopEigen[%d] = %v, Jacobi %v", k, vals[k], full.Values[k])
		}
	}
}

// TestTopEigenMatchesSymEigenByValue holds TopEigen to the full Jacobi
// decomposition on seeded symmetric indefinite matrices of every size class
// from 1 to 80: random (Wigner) matrices, the zero matrix, rank-1 matrices,
// a top value repeated exactly or within 1e-6 among distinct ones, a
// spectrum of three values (the Krylov space goes invariant after three
// steps, before the repeats are seen) and spectra whose most negative value
// out-magnitudes lambda2, the case a largest-magnitude solver answers
// wrongly. Values must match by value for k = 1, 2, 3 (pairs past n are
// zero), every returned vector must be a unit eigenvector, and a pair
// separated from its neighbours must equal Jacobi's vector up to sign.
// The one allowance is TopEigen's documented one: an exactly repeated top
// value among distinct ones may come back once, the list then continuing
// with the next value.
func TestTopEigenMatchesSymEigenByValue(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	uniform := func(lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }
	spectra := map[string]func(n int) []float64{
		"zero": func(n int) []float64 { return make([]float64, n) },
		"rank-1": func(n int) []float64 {
			d := make([]float64, n)
			d[0] = uniform(-3, 3)
			return d
		},
		"repeated top": func(n int) []float64 {
			d := make([]float64, n)
			for i := range d {
				d[i] = uniform(-2, 2)
			}
			d[0] = 3
			if n > 1 {
				d[1] = 3
			}
			return d
		},
		"near-repeated top": func(n int) []float64 {
			d := make([]float64, n)
			for i := range d {
				d[i] = uniform(-2, 2)
			}
			d[0] = 3
			if n > 1 {
				d[1] = 3 - 1e-6
			}
			return d
		},
		"three values": func(n int) []float64 {
			d := make([]float64, n)
			for i := range d {
				d[i] = []float64{3, 1, -2}[i%3]
			}
			return d
		},
		"negative dominates": func(n int) []float64 {
			d := make([]float64, n)
			for i := range d {
				d[i] = uniform(-0.4, 0.4)
			}
			d[0] = 1
			if n > 2 {
				d[1], d[2] = 0.5, -6
			}
			return d
		},
	}
	type fixture struct {
		name string
		a    *Dense
	}
	var cases []fixture
	for _, n := range []int{1, 2, 3, 4, 5, 7, 10, 16, 25, 40, 64, 65, 80} {
		cases = append(cases, fixture{fmt.Sprintf("wigner/%d", n), wigner(rng, n)})
		for name, d := range spectra {
			cases = append(cases, fixture{fmt.Sprintf("%s/%d", name, n), withSpectrum(rng, d(n))})
		}
	}
	for _, c := range cases {
		n := c.a.Rows
		full, err := SymEigen(c.a)
		if err != nil {
			t.Fatal(err)
		}
		size := 1 + math.Max(math.Abs(full.Values[0]), math.Abs(full.Values[n-1]))
		for k := 1; k <= 3; k++ {
			vals, vecs, err := TopEigen(c.a, k, 1000, 1e-12)
			if err != nil {
				t.Fatalf("%s k=%d: %v", c.name, k, err)
			}
			if len(vals) != k || vecs.Rows != n || vecs.Cols != k {
				t.Fatalf("%s k=%d: %d values, %dx%d vectors", c.name, k, len(vals), vecs.Rows, vecs.Cols)
			}
			// src maps a returned pair to Jacobi's: past a missed copy of
			// an exact repeat, one further down.
			missed := strings.HasPrefix(c.name, "repeated top") && k > 1 && n > 2 &&
				!almostEq(vals[1], full.Values[1], 1e-8*size)
			src := func(j int) int {
				if missed && j > 0 {
					return j + 1
				}
				return j
			}
			for j := 0; j < k; j++ {
				x := make([]float64, n)
				for i := range x {
					x[i] = vecs.At(i, j)
				}
				if j >= n {
					if vals[j] != 0 || norm(x) != 0 {
						t.Errorf("%s k=%d: pair %d past n is %v / |x| %v, want zero", c.name, k, j, vals[j], norm(x))
					}
					continue
				}
				if src(j) >= n || !almostEq(vals[j], full.Values[src(j)], 1e-8*size) {
					t.Errorf("%s k=%d: value %d = %v, Jacobi %v", c.name, k, j, vals[j], full.Values[min(src(j), n-1)])
					continue
				}
				ax, _ := c.a.MulVec(x)
				res := 0.0
				for i := range ax {
					res = math.Max(res, math.Abs(ax[i]-vals[j]*x[i]))
				}
				if !almostEq(norm(x), 1, 1e-8) || res > 1e-7*size {
					t.Errorf("%s k=%d: vector %d has |x| %v, residual %v", c.name, k, j, norm(x), res)
				}
				gap, f := math.Inf(1), src(j)
				for _, i := range []int{f - 1, f + 1} {
					if i >= 0 && i < n {
						gap = math.Min(gap, math.Abs(full.Values[i]-full.Values[f]))
					}
				}
				if gap > 1e-3*size {
					u := make([]float64, n)
					for i := range u {
						u[i] = full.Vectors.At(i, f)
					}
					if cos := math.Abs(dot(x, u)); !almostEq(cos, 1, 1e-8) {
						t.Errorf("%s k=%d: vector %d is %v off Jacobi's (gap %v)", c.name, k, j, 1-cos, gap)
					}
				}
			}
		}
	}
}

func TestTopEigenRejects(t *testing.T) {
	if _, _, err := TopEigen(NewDense(2, 3), 1, 10, 1e-10); err == nil {
		t.Error("non-square should fail")
	}
	for _, x := range []float64{math.NaN(), math.Inf(1)} {
		a := wigner(rand.New(rand.NewSource(1)), 80)
		a.Set(3, 5, x)
		a.Set(5, 3, x)
		if _, _, err := TopEigen(a, 2, 1000, 1e-10); err == nil {
			t.Errorf("an entry %v should fail", x)
		}
	}
}

// wigner returns a random symmetric matrix with standard normal entries.
func wigner(rng *rand.Rand, n int) *Dense {
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}

// withSpectrum returns Q diag(d) Q^T for a random orthogonal Q.
func withSpectrum(rng *rand.Rand, d []float64) *Dense {
	n := len(d)
	q := make([][]float64, 0, n) // orthonormal columns, by Gram-Schmidt
	for len(q) < n {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		orthogonalize(v, q)
		normalize(v)
		q = append(q, v)
	}
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			s := 0.0
			for l, col := range q {
				s += col[i] * d[l] * col[j]
			}
			a.Set(i, j, s)
			a.Set(j, i, s)
		}
	}
	return a
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("identity[%d][%d] = %v", i, j, id.At(i, j))
			}
		}
	}
}

func TestMulIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(rng.Int31n(6))
		a := NewDense(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		prod, err := a.Mul(Identity(n))
		if err != nil {
			return false
		}
		for i := range a.Data {
			if !almostEq(prod.Data[i], a.Data[i], 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// The dense algebra below is test support: TestTopEigenMatchesJacobi builds
// its PSD fixture with it, and no production path multiplies, scales or
// adds whole matrices.

// FromRows builds a Dense from a slice of equal-length rows.
func FromRows(rows [][]float64) (*Dense, error) {
	if len(rows) == 0 {
		return NewDense(0, 0), nil
	}
	c := len(rows[0])
	m := NewDense(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			return nil, fmt.Errorf("mat: ragged input: row %d has %d cols, want %d", i, len(r), c)
		}
		copy(m.Data[i*c:(i+1)*c], r)
	}
	return m, nil
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	out := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Mul returns m * b.
func (m *Dense) Mul(b *Dense) (*Dense, error) {
	if m.Cols != b.Rows {
		return nil, fmt.Errorf("mat: dimension mismatch %dx%d * %dx%d", m.Rows, m.Cols, b.Rows, b.Cols)
	}
	out := NewDense(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		mi := m.Row(i)
		oi := out.Row(i)
		for k := 0; k < m.Cols; k++ {
			a := mi[k]
			if a == 0 {
				continue
			}
			bk := b.Row(k)
			for j := range oi {
				oi[j] += a * bk[j]
			}
		}
	}
	return out, nil
}

// Scale multiplies every element in place by s.
func (m *Dense) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// Add adds b element-wise in place; dimensions must match.
func (m *Dense) Add(b *Dense) error {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return errors.New("mat: dimension mismatch in Add")
	}
	for i := range m.Data {
		m.Data[i] += b.Data[i]
	}
	return nil
}
