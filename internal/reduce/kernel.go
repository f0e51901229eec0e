package reduce

// The two inner loops of a cold typical-pattern view — t-SNE's pair pass
// and the Pearson dot product — run in four lanes: lane l takes the
// elements j ≡ l (mod 4) in ascending order, and the lanes reduce as
// (l0+l1)+(l2+l3). On amd64 with AVX2 (and the OS saving YMM state) an
// assembly kernel computes the lanes; elsewhere the Go twins below do.
// Both round every product and every sum the same way — the Go twins
// convert each product to float64, so no compiler fuses a multiply-add
// the assembly does not — and so give bit-identical results. hasAVX2 is
// read from CPUID once, at start-up.

// laneSums holds, per lane, row i's attractive x, y and repulsive x, y
// sums and its sum of kernels.
type laneSums [5][4]float64

// total reduces sum k over its lanes.
func (s *laneSums) total(k int) float64 {
	return (s[k][0] + s[k][1]) + (s[k][2] + s[k][3])
}

// rowSums holds attractive x, y and repulsive x, y sums, one per row.
type rowSums struct{ ax, ay, rx, ry []float64 }

func newRowSums(n int) rowSums {
	return rowSums{make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)}
}

// from returns the sums of the rows from j on.
func (r rowSums) from(j int) rowSums {
	return rowSums{r.ax[j:], r.ay[j:], r.rx[j:], r.ry[j:]}
}

func (r rowSums) clear() {
	clear(r.ax)
	clear(r.ay)
	clear(r.rx)
	clear(r.ry)
}

// pairPass visits the pairs of the point (xi, yi) with the points (xs[j],
// ys[j]), whose P entries are p: with k = 1/(1 + dx² + dy²), it adds p·k·d
// and k²·d to row i's lane sums s and k to its kernel sum, and subtracts
// the same forces from row j's sums in part.
func pairPass(avx2 bool, xi, yi float64, p, xs, ys []float64, part rowSums, s *laneSums) {
	n := len(p)
	xs, ys = xs[:n], ys[:n]
	ax, ay, rx, ry := part.ax[:n], part.ay[:n], part.rx[:n], part.ry[:n]
	m := 0
	if avx2 {
		m = n &^ 3
		pairAVX2(xi, yi, p[:m], xs[:m], ys[:m], ax[:m], ay[:m], rx[:m], ry[:m], s)
	}
	// The tail after the kernel's whole vectors starts at a multiple of
	// 4, so its element l joins lane l.
	pairGo(xi, yi, p[m:], xs[m:], ys[m:], ax[m:], ay[m:], rx[m:], ry[m:], s)
}

// pairGo is the Go twin of pairAVX2, over any length.
func pairGo(xi, yi float64, p, xs, ys, ax, ay, rx, ry []float64, s *laneSums) {
	n := len(p)
	xs, ys, ax, ay, rx, ry = xs[:n], ys[:n], ax[:n], ay[:n], rx[:n], ry[:n]
	for l := 0; l < 4 && l < n; l++ {
		sax, say, srx, sry, sz := s[0][l], s[1][l], s[2][l], s[3][l], s[4][l]
		for j := l; j < n; j += 4 {
			dx, dy := xi-xs[j], yi-ys[j]
			k := 1 / (1 + float64(dx*dx) + float64(dy*dy))
			pk, kk := p[j]*k, k*k
			fax, fay, frx, fry := float64(pk*dx), float64(pk*dy), float64(kk*dx), float64(kk*dy)
			sax, say, srx, sry, sz = sax+fax, say+fay, srx+frx, sry+fry, sz+k
			ax[j], ay[j], rx[j], ry[j] = ax[j]-fax, ay[j]-fay, rx[j]-frx, ry[j]-fry
		}
		s[0][l], s[1][l], s[2][l], s[3][l], s[4][l] = sax, say, srx, sry, sz
	}
}

// dot returns the sum of a[k]·b[k] in four lanes; the elements after the
// last whole vector join lane 0.
func dot(avx2 bool, a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	k := 0
	if avx2 {
		k = len(a) &^ 3
		s0, s1, s2, s3 = dotAVX2(a[:k], b[:k])
	}
	for ; k+4 <= len(a); k += 4 {
		s0 += float64(a[k] * b[k])
		s1 += float64(a[k+1] * b[k+1])
		s2 += float64(a[k+2] * b[k+2])
		s3 += float64(a[k+3] * b[k+3])
	}
	for ; k < len(a); k++ {
		s0 += float64(a[k] * b[k])
	}
	return (s0 + s1) + (s2 + s3)
}
