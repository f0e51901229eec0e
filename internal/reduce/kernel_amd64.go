package reduce

// hasAVX2 reports AVX2 in the CPU and YMM state saved by the OS.
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&(osxsave|avx) != osxsave|avx || xgetbv()&6 != 6 { // XMM and YMM state
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low word of XCR0.
func xgetbv() (eax uint32)

// pairAVX2 is pairPass's kernel over the first len(p) &^ 3 pairs; the
// other slices are at least as long as p.
//
//go:noescape
func pairAVX2(xi, yi float64, p, xs, ys, ax, ay, rx, ry []float64, s *laneSums)

// dotAVX2 returns the four lane sums of a[k]·b[k] over the first
// len(a) &^ 3 elements; b is at least as long as a.
//
//go:noescape
func dotAVX2(a, b []float64) (s0, s1, s2, s3 float64)
