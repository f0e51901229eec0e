package reduce

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"vap/internal/exec"
)

func requireAVX2(t *testing.T) {
	t.Helper()
	if !hasAVX2 {
		t.Skip("the CPU (or the OS) offers no AVX2: only the Go twin runs here")
	}
}

func randSlice(rng *rand.Rand, n int, scale float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64() * scale
	}
	return s
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// pairCase is one row of the pair pass: the point, the other points with
// their P entries, the partials the row subtracts from and the lane sums
// it adds to.
type pairCase struct {
	xi, yi         float64
	p, xs, ys      []float64
	ax, ay, rx, ry []float64
	s              laneSums
}

func (c pairCase) clone() pairCase {
	d := c
	for _, f := range []*[]float64{&d.ax, &d.ay, &d.rx, &d.ry} {
		*f = append([]float64(nil), *f...)
	}
	return d
}

func (c *pairCase) run(avx2 bool) {
	pairPass(avx2, c.xi, c.yi, c.p, c.xs, c.ys, rowSums{c.ax, c.ay, c.rx, c.ry}, &c.s)
}

// checkPairKernels runs c through both kernels and fails on any bit that
// differs, in a lane sum or in a partial.
func checkPairKernels(t *testing.T, name string, c pairCase) {
	t.Helper()
	asm, twin := c.clone(), c.clone()
	asm.run(true)
	twin.run(false)
	for k := range asm.s {
		for l := range asm.s[k] {
			if !sameBits(asm.s[k][l], twin.s[k][l]) {
				t.Fatalf("%s: lane sum [%d][%d] = %v, Go twin %v", name, k, l, asm.s[k][l], twin.s[k][l])
			}
		}
	}
	for f, pair := range [][2][]float64{{asm.ax, twin.ax}, {asm.ay, twin.ay}, {asm.rx, twin.rx}, {asm.ry, twin.ry}} {
		for j := range pair[0] {
			if !sameBits(pair[0][j], pair[1][j]) {
				t.Fatalf("%s: partial %d at %d = %v, Go twin %v", name, f, j, pair[0][j], pair[1][j])
			}
		}
	}
}

// TestPairKernelMatchesGoTwin: the AVX2 pair kernel and its Go twin agree
// bit for bit on every row length 0..70 at start offsets 0..3 (the
// kernel's vectors need no alignment), from zero and from running lane
// sums, and on rows whose 1 + d² overflows to +Inf (k = 0), whose k² is
// subnormal, and whose P is zero.
func TestPairKernelMatchesGoTwin(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(41))
	for n := 0; n <= 70; n++ {
		for off := 0; off <= 3; off++ {
			size := off + n
			c := pairCase{
				xi: rng.NormFloat64(), yi: rng.NormFloat64(),
				p:  randSlice(rng, size, 1e-3),
				xs: randSlice(rng, size, 2), ys: randSlice(rng, size, 2),
				ax: randSlice(rng, size, 1), ay: randSlice(rng, size, 1),
				rx: randSlice(rng, size, 1), ry: randSlice(rng, size, 1),
			}
			c.p, c.xs, c.ys = c.p[off:], c.xs[off:], c.ys[off:]
			c.ax, c.ay, c.rx, c.ry = c.ax[off:], c.ay[off:], c.rx[off:], c.ry[off:]
			checkPairKernels(t, "random", c)
			for k := range c.s {
				copy(c.s[k][:], randSlice(rng, 4, 1))
			}
			checkPairKernels(t, "running sums", c)
		}
	}

	const n = 23
	edge := func(dist float64, p float64) pairCase {
		c := pairCase{
			xi: 0.5, yi: -0.25,
			p:  make([]float64, n),
			xs: make([]float64, n), ys: make([]float64, n),
			ax: make([]float64, n), ay: make([]float64, n),
			rx: make([]float64, n), ry: make([]float64, n),
		}
		for j := range c.p {
			c.p[j] = p
			c.xs[j] = dist * (1 + float64(j)/n)
			c.ys[j] = -dist * float64(j%3) / 3
		}
		return c
	}
	for _, tc := range []struct {
		name    string
		c       pairCase
		allZero bool
	}{
		{"1+d² overflows", edge(1e160, 1e-4), true},
		{"subnormal k²", edge(1e80, 1e-4), false},
		{"zero P", edge(1, 0), false},
	} {
		checkPairKernels(t, tc.name, tc.c)
		c := tc.c.clone()
		c.run(true)
		if tc.allZero && (c.s[4] != [4]float64{} || c.s[0] != [4]float64{}) {
			t.Errorf("%s: k = 0 should contribute nothing, lane sums %v", tc.name, c.s)
		}
		if dx, dy := c.xi-c.xs[0], c.yi-c.ys[0]; tc.name == "subnormal k²" {
			if k := 1 / (1 + dx*dx + dy*dy); k*k == 0 || k*k >= 0x1p-1022 {
				t.Errorf("%s: k² = %v is not subnormal", tc.name, k*k)
			}
		}
	}
}

// dotRef is the Pearson distance's four-accumulator loop as it stood
// before the kernels, products rounded on their own as amd64 computes
// them.
func dotRef(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	k := 0
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

// TestDotMatchesReference: both dot kernels return the reference loop's
// sum bit for bit, at widths 1..40 and the daily width 365.
func TestDotMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	widths := []int{365}
	for w := 1; w <= 40; w++ {
		widths = append(widths, w)
	}
	for _, w := range widths {
		for rep := 0; rep < 8; rep++ {
			a, b := randSlice(rng, w, 1), randSlice(rng, w+rep%4, 1)
			want := dotRef(a, b)
			if got := dot(false, a, b); !sameBits(got, want) {
				t.Fatalf("width %d: Go twin %v, reference %v", w, got, want)
			}
			if hasAVX2 {
				if got := dot(true, a, b); !sameBits(got, want) {
					t.Fatalf("width %d: AVX2 %v, reference %v", w, got, want)
				}
			}
		}
	}
}

// TestTSNEIdenticalAcrossKernels: on the benchmark's 460 meters, the
// embedding and the KL are bit-identical for either pair kernel and every
// worker count. 260 iterations run past the end of early exaggeration
// and the momentum switch.
func TestTSNEIdenticalAcrossKernels(t *testing.T) {
	requireAVX2(t)
	if testing.Short() {
		t.Skip("460-point runs")
	}
	d := genDailyFixture(t, 11)
	var base *TSNEResult
	for _, avx2 := range []bool{false, true} {
		for _, workers := range []int{1, 2, 4} {
			res, err := tsne(context.Background(), d, TSNEConfig{Seed: 7, Iterations: 260, Workers: workers}, avx2)
			if err != nil {
				t.Fatal(err)
			}
			if base == nil {
				base = res
				continue
			}
			for i := range res.Embedding {
				if res.Embedding[i] != base.Embedding[i] {
					t.Fatalf("avx2=%v workers=%d: point %d = %v, Go twin at 1 worker %v", avx2, workers, i, res.Embedding[i], base.Embedding[i])
				}
			}
			if !sameBits(res.KL, base.KL) {
				t.Errorf("avx2=%v workers=%d: KL %v, Go twin at 1 worker %v", avx2, workers, res.KL, base.KL)
			}
		}
	}
}

// BenchmarkGradient times one pair pass over the benchmark's 460 meters
// with each kernel.
func BenchmarkGradient(b *testing.B) {
	const n = 460
	_, p := oracleP(n)
	y := randomEmbedding(rand.New(rand.NewSource(1)), n, 5)
	for _, k := range []struct {
		name string
		avx2 bool
	}{{"Go", false}, {"AVX2", true}} {
		b.Run(k.name, func(b *testing.B) {
			if k.avx2 && !hasAVX2 {
				b.Skip("no AVX2")
			}
			g := newGradient(p, n, exec.NewTeam(1), k.avx2)
			for b.Loop() {
				if err := g.compute(context.Background(), y, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
