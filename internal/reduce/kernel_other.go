//go:build !amd64

package reduce

// hasAVX2 is false off amd64: the Go twins run.
const hasAVX2 = false

func pairAVX2(xi, yi float64, p, xs, ys, ax, ay, rx, ry []float64, s *laneSums) {
	panic("reduce: AVX2 kernel on a non-amd64 build")
}

func dotAVX2(a, b []float64) (s0, s1, s2, s3 float64) {
	panic("reduce: AVX2 kernel on a non-amd64 build")
}
