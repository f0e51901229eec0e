package main

import (
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The builder VM is two vCPUs of a shared host, and what a neighbour does
// on the other hardware threads of the same cores changes how fast code
// runs here, for a minute or two at a time: between a quiet spell and a
// busy one a cached statement went from 0.45 to 0.65 ms, a cold flow map
// from 33 to 52 ms, a narrow scan from 11 to 15 ms, with no change to
// anything in this repository. A dependent ALU chain or a pointer chase
// barely notices such a spell (+6 %); code that keeps the core's ports
// busy, as the server's does, pays +20..50 %. No statistic taken inside a
// 20 s run removes a spell that outlasts the run.
//
// So every timed phase of a run (a measurement window, an explore session,
// a cold start) is preceded by the basket: six small kernels of the
// benchmark's own, each shaped like a kind of code the server runs (wide
// integer work, block copies, decode-and-aggregate with branches, float
// formatting, map lookups, exp over a grid), run on both vCPUs at once
// while vapd is idle. The phase's speed index is the geometric mean of the
// kernels' times over calibNominal, and the phase's timings are reported
// at reference speed: times divided by the index, rates multiplied by it.
// The basket is the benchmark's code, not the program's: a regression in
// vapd moves the raw number and not the index; a busy spell on the host
// moves both. Raw values are kept beside the adjusted ones.
const (
	calibNominal = 10.5 // ms: the basket's geometric mean on this VM in a quiet spell
	calibReps    = 2    // the faster of two runs of each kernel counts
)

// calibData is each thread's private 2 MB of pseudo-random words (fits
// the core's L2 next to the 1 MB copy target).
var calibData, calibCopy = func() (d, c [2][]uint64) {
	x := uint64(88172645463325252)
	for g := range d {
		d[g] = make([]uint64, 256<<10)
		c[g] = make([]uint64, 128<<10)
		for i := range d[g] {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			d[g][i] = x
		}
	}
	return
}()

// basket is the kernels, each about 10 ms per thread on this VM.
var basket = []func(g int) uint64{
	func(g int) uint64 { // eight independent integer chains: issue-width bound
		a, b, c, d, e, f, h, k := uint64(1+g), uint64(2), uint64(3), uint64(4), uint64(5), uint64(6), uint64(7), uint64(8)
		for i := 0; i < 3_000_000; i++ {
			a, b, c, d, e, f, h, k = a^a<<13, b^b<<13, c^c<<13, d^d<<13, e^e<<13, f^f<<13, h^h<<13, k^k<<13
			a, b, c, d, e, f, h, k = a^a>>7, b^b>>7, c^c>>7, d^d>>7, e^e>>7, f^f>>7, h^h>>7, k^k>>7
			a, b, c, d, e, f, h, k = a^a<<17, b^b<<17, c^c<<17, d^d<<17, e^e<<17, f^f<<17, h^h<<17, k^k<<17
		}
		return a ^ b ^ c ^ d ^ e ^ f ^ h ^ k
	},
	func(g int) uint64 { // 1 MB block copies inside L2
		for i := 0; i < 180; i++ {
			copy(calibCopy[g], calibData[g][(i%2)*(128<<10):])
		}
		return calibCopy[g][5]
	},
	func(g int) uint64 { // decode and aggregate: shifts, a branch, float sums per bucket, min and max
		var sum [64]float64
		var cnt [64]uint32
		mn, mx := math.Inf(1), math.Inf(-1)
		for pass := 0; pass < 8; pass++ {
			for _, v := range calibData[g] {
				x := float64(v&0xfffff) * 0.001
				if v&0x100000 != 0 {
					x = -x
				}
				sum[v>>58] += x
				cnt[v>>58]++
				mn, mx = min(mn, x), max(mx, x)
			}
		}
		return uint64(sum[3]) + uint64(cnt[5]) + uint64(mn+mx)
	},
	func(g int) uint64 { // shortest-representation float formatting into a reused buffer
		buf := make([]byte, 0, 1<<16)
		n := 0
		for i := 0; i < 150_000; i++ {
			if len(buf) > 60000 {
				n += len(buf)
				buf = buf[:0]
			}
			buf = strconv.AppendFloat(buf, float64(calibData[g][i&0xffff]&0xffffff)*0.37, 'g', -1, 64)
			buf = append(buf, ',')
		}
		return uint64(n + len(buf))
	},
	func(g int) uint64 { // map lookups
		m := make(map[uint64]int, 4096)
		for i, v := range calibData[g][:4096] {
			m[v] = i
		}
		n := 0
		for pass := 0; pass < 200; pass++ {
			for _, v := range calibData[g][:4096] {
				n += m[v]
			}
		}
		return uint64(n)
	},
	func(g int) uint64 { // exp over a 96x96 grid
		grid := make([]float64, 96*96)
		for p := 0; p < 100; p++ {
			px, py := float64(calibData[g][p]&0xff)/256*96, float64(calibData[g][p+128]&0xff)/256*96
			for y := 0; y < 96; y++ {
				dy := float64(y) - py
				for x := 0; x < 96; x++ {
					dx := float64(x) - px
					grid[y*96+x] += math.Exp(-(dx*dx + dy*dy) / 200)
				}
			}
		}
		return uint64(grid[77])
	},
}

var calibSink atomic.Uint64

// pairTime runs one kernel on both vCPUs at once (vapd's scans and the
// load generator use both) and returns the wall time of the pair in ms.
func pairTime(k func(int) uint64) float64 {
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() { defer wg.Done(); calibSink.Add(k(g)) }()
	}
	wg.Wait()
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// speed collects the speed indices of one run's phases.
type speed struct{ idx []float64 }

// sample runs the basket (about 0.15 s) and returns the speed index of
// the phase that follows: 1.3 means its timings are divided by 1.3 and
// its rates multiplied by it.
func (s *speed) sample() float64 {
	logSum := 0.0
	for _, k := range basket {
		t := math.Inf(1)
		for r := 0; r < calibReps; r++ {
			t = min(t, pairTime(k))
		}
		logSum += math.Log(t)
	}
	idx := math.Exp(logSum/float64(len(basket))) / calibNominal
	s.idx = append(s.idx, idx)
	return idx
}
