package frontend

import (
	"context"
	"net/http"
	"testing"
	"time"

	"vap/internal/core"
	"vap/internal/gen"
	"vap/internal/govern"
	"vap/internal/store"
)

const zoneQuery = "SELECT zone, sum(value) FROM meters GROUP BY zone"

// newTestCore builds a Core over a small generated store whose governor
// caps the "capped" tenant at 100 estimated samples per statement.
func newTestCore(t *testing.T) *Core {
	t.Helper()
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ds := gen.Generate(gen.Config{Seed: 1, Days: 5, Counts: map[gen.Pattern]int{gen.PatternBimodal: 4, gen.PatternConstantHigh: 4}})
	if err := ds.LoadInto(st); err != nil {
		t.Fatal(err)
	}
	gov := govern.New(govern.Config{Tenants: map[string]govern.Quota{"capped": {MaxCostSamples: 100}}})
	return NewCore(core.NewAnalyzerOpts(st, core.Options{Gov: gov}))
}

// TestExecuteStatuses drives Execute and ExecuteTimeout over each way a
// statement ends, and checks the status both transports would send.
func TestExecuteStatuses(t *testing.T) {
	c := newTestCore(t)
	bg := context.Background()
	deadlined := NewSession("")
	if err := deadlined.Set("deadline", "1ns"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		sess      *Session
		src       string
		timeout   time.Duration
		status    int
		errno     uint16
		wantError string
	}{
		{"empty statement", NewSession(""), " \n\t", 0, http.StatusBadRequest, MyErrEmptyQuery, "frontend: empty statement"},
		{"parse error", NewSession(""), "SELEC zone FROM meters", 0, http.StatusBadRequest, MyErrParse, ""},
		{"session deadline", deadlined, zoneQuery, 0, http.StatusGatewayTimeout, MyErrTimeout, ""},
		{"transport timeout", NewSession(""), zoneQuery, time.Nanosecond, http.StatusGatewayTimeout, MyErrTimeout, ""},
		{"tenant cost ceiling", NewSession("capped"), zoneQuery, 0, http.StatusUnprocessableEntity, MyErrCost, ""},
		{"ok", NewSession(""), zoneQuery, time.Minute, http.StatusOK, 0, ""},
	} {
		out, err := c.ExecuteTimeout(bg, tc.sess, tc.src, tc.timeout)
		if tc.status == http.StatusOK {
			if err != nil || out == nil || len(out.Result.Rows) == 0 {
				t.Errorf("%s: out %v, err %v; want rows", tc.name, out, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: no error, want %d", tc.name, tc.status)
			continue
		}
		info := MapError(err)
		if info.HTTPStatus != tc.status || info.MyErrno != tc.errno {
			t.Errorf("%s: %d / %d (%v), want %d / %d", tc.name, info.HTTPStatus, info.MyErrno, err, tc.status, tc.errno)
		}
		if tc.wantError != "" && err.Error() != tc.wantError {
			t.Errorf("%s: error %q, want %q", tc.name, err.Error(), tc.wantError)
		}
	}
	if s := c.Gov().Snapshot().Tenants["capped"]; s.RejectedCost != 1 {
		t.Errorf("capped tenant rejected_cost = %d, want 1: the session's tenant must reach admission", s.RejectedCost)
	}
}

// TestExecuteCountsEveryStatement: the session's statement id advances for
// a failed statement as for a good one.
func TestExecuteCountsEveryStatement(t *testing.T) {
	c := newTestCore(t)
	sess := NewSession("")
	for _, src := range []string{"", "SELEC", zoneQuery} {
		_, _ = c.Execute(context.Background(), sess, src)
	}
	if n := sess.NextStmt(); n != 4 {
		t.Errorf("statement id after three statements = %d, want 4", n)
	}
}
