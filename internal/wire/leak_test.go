package wire

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// goroutines returns the stacks of the running goroutines by id.
func goroutines() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := map[string]string{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		if id, _, ok := strings.Cut(strings.TrimPrefix(g, "goroutine "), " "); ok {
			out[id] = g
		}
	}
	return out
}

// checkNoLeakedGoroutines fails t if a goroutine whose stack holds fn was
// started after before was taken and is still alive. Goroutines are given a
// second to wind down.
func checkNoLeakedGoroutines(t testing.TB, before map[string]string, fn string) {
	t.Helper()
	var leaked []string
	for deadline := time.Now().Add(time.Second); ; time.Sleep(5 * time.Millisecond) {
		leaked = leaked[:0]
		for id, g := range goroutines() {
			if _, old := before[id]; !old && strings.Contains(g, fn) {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			break
		}
	}
	for _, g := range leaked {
		t.Errorf("leaked goroutine:\n%s", g)
	}
}
