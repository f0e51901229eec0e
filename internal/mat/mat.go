// Package mat implements the small dense linear-algebra kernel VAP's
// analytics need: a row-major dense matrix, the double-centering operator
// of classical MDS, and one symmetric eigensolver for the reducers —
// TopEigen, a Lanczos top-k whose small tridiagonal is diagonalized by
// SymEigen's cyclic Jacobi method.
//
// The package is deliberately minimal — it is not a general BLAS — and is
// tested against closed-form cases and, for TopEigen, against the full
// Jacobi decomposition.
package mat

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewDense returns a zeroed Rows x Cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic("mat: negative dimension")
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MulVec returns m * v.
func (m *Dense) MulVec(v []float64) ([]float64, error) {
	if m.Cols != len(v) {
		return nil, fmt.Errorf("mat: dimension mismatch %dx%d * vec(%d)", m.Rows, m.Cols, len(v))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		s := 0.0
		for j, x := range row {
			s += x * v[j]
		}
		out[i] = s
	}
	return out, nil
}

// IsSymmetric reports whether the matrix is square and symmetric to tol.
func (m *Dense) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// DoubleCenter applies the centering operator B = -1/2 * J * D2 * J where
// J = I - (1/n) 11^T, to a squared-distance matrix D2, in place, returning
// the Gram matrix used by classical MDS.
func DoubleCenter(d2 *Dense) (*Dense, error) {
	n := d2.Rows
	if n != d2.Cols {
		return nil, errors.New("mat: DoubleCenter requires a square matrix")
	}
	rowMean := make([]float64, n)
	colMean := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := d2.At(i, j)
			rowMean[i] += v
			colMean[j] += v
			total += v
		}
	}
	fn := float64(n)
	for i := range rowMean {
		rowMean[i] /= fn
	}
	for j := range colMean {
		colMean[j] /= fn
	}
	total /= fn * fn
	out := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			out.Set(i, j, -0.5*(d2.At(i, j)-rowMean[i]-colMean[j]+total))
		}
	}
	return out, nil
}

// Eigen holds an eigendecomposition of a symmetric matrix: Values sorted in
// descending order and Vectors with the i-th eigenvector in column i.
type Eigen struct {
	Values  []float64
	Vectors *Dense // n x n, column i pairs with Values[i]
}

// SymEigen computes the full eigendecomposition of symmetric matrix a using
// the cyclic Jacobi rotation method. The input is not modified.
func SymEigen(a *Dense) (*Eigen, error) {
	n := a.Rows
	if n != a.Cols {
		return nil, errors.New("mat: SymEigen requires a square matrix")
	}
	if !a.IsSymmetric(1e-8 * (1 + maxAbs(a))) {
		return nil, errors.New("mat: SymEigen requires a symmetric matrix")
	}
	w := a.Clone()
	v := Identity(n)
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offDiagNorm(w)
		if off < 1e-12*(1+maxAbs(w)) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app := w.At(p, p)
				aqq := w.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				rotate(w, v, p, q, c, s)
			}
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Descending by eigenvalue, vector columns following.
	slices.SortStableFunc(order, func(x, y int) int { return cmp.Compare(w.At(y, y), w.At(x, x)) })
	vals, vecs := make([]float64, n), NewDense(n, n)
	for k, idx := range order {
		vals[k] = w.At(idx, idx)
		for r := 0; r < n; r++ {
			vecs.Set(r, k, v.At(r, idx))
		}
	}
	return &Eigen{Values: vals, Vectors: vecs}, nil
}

// rotate applies a Jacobi rotation with cos c, sin s on rows/cols p, q of w,
// accumulating the rotation into v.
func rotate(w, v *Dense, p, q int, c, s float64) {
	n := w.Rows
	for i := 0; i < n; i++ {
		wip := w.At(i, p)
		wiq := w.At(i, q)
		w.Set(i, p, c*wip-s*wiq)
		w.Set(i, q, s*wip+c*wiq)
	}
	for j := 0; j < n; j++ {
		wpj := w.At(p, j)
		wqj := w.At(q, j)
		w.Set(p, j, c*wpj-s*wqj)
		w.Set(q, j, s*wpj+c*wqj)
	}
	for i := 0; i < n; i++ {
		vip := v.At(i, p)
		viq := v.At(i, q)
		v.Set(i, p, c*vip-s*viq)
		v.Set(i, q, s*vip+c*viq)
	}
}

func offDiagNorm(m *Dense) float64 {
	s := 0.0
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if i != j {
				s += m.At(i, j) * m.At(i, j)
			}
		}
	}
	return math.Sqrt(s)
}

func maxAbs(m *Dense) float64 {
	mx := 0.0
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Identity returns the n x n identity.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// TopEigen returns the k algebraically largest eigenpairs of symmetric a:
// values descending, column j of the n x k result the unit eigenvector of
// value j, zero pairs past n; a non-square a or a non-finite entry is an
// error. It runs Lanczos with full reorthogonalization from a fixed start
// vector and diagonalizes the tridiagonal with SymEigen every 4 steps,
// until every wanted Ritz residual beta_m*|s_mj| is at most tol times the
// largest |Ritz value|, or for min(n, maxIter) steps.
//
// An invariant Krylov space misses what the start vector did not reach,
// such as the second copy of a repeated value, so the run restarts
// orthogonally to it and from then on ends only at the step limit or at an
// invariant space that raises no wanted value. A start vector that reaches
// every eigenvalue leaves only copies of seen values to a restarted block,
// which therefore goes invariant as fast. Like any single-vector Krylov
// method, if a wanted value repeats exactly and the space never goes
// invariant, its further copies appear only through rounding, and one may
// be missing.
func TopEigen(a *Dense, k, maxIter int, tol float64) ([]float64, *Dense, error) {
	n := a.Rows
	if n != a.Cols {
		return nil, nil, errors.New("mat: TopEigen requires a square matrix")
	}
	for _, x := range a.Data {
		if math.IsNaN(x) || math.IsInf(x, 0) { // no Ritz residual would ever converge
			return nil, nil, errors.New("mat: TopEigen requires finite entries")
		}
	}
	vals, vecs := make([]float64, k), NewDense(n, k)
	steps := min(n, maxIter)
	if k == 0 || steps <= 0 {
		return vals, vecs, nil
	}
	v := make([]float64, n)
	for i := range v {
		// Deterministic quasi-random start avoids orthogonal-start stalls.
		v[i] = 1 + 0.001*float64(i%7)
	}
	normalize(v)
	basis := make([][]float64, 0, steps)
	var alpha, beta []float64
	var ritz *Eigen
	scale := 0.0        // largest |alpha|, beta seen: a lower bound on ||a||
	kth := math.Inf(-1) // k-th Ritz value at the last restart
	for {
		basis = append(basis, v)
		w, _ := a.MulVec(v) // a is square
		alpha = append(alpha, dot(v, w))
		orthogonalize(w, basis)
		b, m := norm(w), len(basis)
		scale = max(scale, math.Abs(alpha[m-1]), b)
		invariant := b <= 1e-12*scale
		// After a restart with k values only an invariant space is checked:
		// the earlier blocks' pairs have zero residuals.
		if m == steps || invariant || (m >= k && m%4 == 0 && math.IsInf(kth, -1)) {
			t := NewDense(m, m)
			for i := range alpha {
				t.Set(i, i, alpha[i])
				if i > 0 {
					t.Set(i, i-1, beta[i-1])
					t.Set(i-1, i, beta[i-1])
				}
			}
			ritz, _ = SymEigen(t) // symmetric by construction
			bound := tol * max(math.Abs(ritz.Values[0]), math.Abs(ritz.Values[m-1]))
			converged := !invariant
			for j := 0; j < min(k, m); j++ {
				converged = converged && b*math.Abs(ritz.Vectors.At(m-1, j)) <= bound
			}
			if m == steps || converged || (m >= k && ritz.Values[k-1] <= kth+bound) {
				break
			}
			if invariant {
				if m >= k {
					kth = ritz.Values[k-1]
				}
				w, b = restartVector(basis), 0
			}
		}
		beta = append(beta, b)
		v = w
		normalize(v)
	}
	for j := 0; j < min(k, len(basis)); j++ {
		vals[j] = ritz.Values[j]
		for i, q := range basis { // column j is basis * s_j
			for r, x := range q {
				vecs.Data[r*k+j] += ritz.Vectors.At(i, j) * x
			}
		}
	}
	return vals, vecs, nil
}

// orthogonalize removes from w its components along the orthonormal basis,
// in two classical Gram-Schmidt passes.
func orthogonalize(w []float64, basis [][]float64) {
	for pass := 0; pass < 2; pass++ {
		for _, q := range basis {
			c := dot(q, w)
			for i := range w {
				w[i] -= c * q[i]
			}
		}
	}
}

// restartVector returns e_r for the coordinate r the basis covers least,
// orthogonalized against the basis: with fewer than n basis vectors, r's
// squared coverage is below 1, so the result is nonzero.
func restartVector(basis [][]float64) []float64 {
	cover := make([]float64, len(basis[0]))
	for _, q := range basis {
		for r, x := range q {
			cover[r] += x * x
		}
	}
	w := make([]float64, len(cover))
	w[slices.Index(cover, slices.Min(cover))] = 1
	orthogonalize(w, basis)
	return w
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func norm(a []float64) float64 { return math.Sqrt(dot(a, a)) }

func normalize(a []float64) {
	n := norm(a)
	if n == 0 {
		return
	}
	for i := range a {
		a[i] /= n
	}
}
