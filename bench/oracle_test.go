package main

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

func TestTruncBucket(t *testing.T) {
	at := func(s string) int64 {
		tm, err := time.Parse("2006-01-02 15:04", s)
		if err != nil {
			t.Fatal(err)
		}
		return tm.Unix()
	}
	for _, c := range []struct{ gran, in, want string }{
		{"hourly", "2018-03-14 15:59", "2018-03-14 15:00"},
		{"daily", "2018-03-14 15:59", "2018-03-14 00:00"},
		{"weekly", "2018-03-14 15:59", "2018-03-12 00:00"}, // a Wednesday -> its Monday
		{"weekly", "2018-03-12 00:00", "2018-03-12 00:00"},
		{"weekly", "2018-03-11 23:59", "2018-03-05 00:00"}, // Sunday belongs to the week before
		{"monthly", "2018-03-31 23:59", "2018-03-01 00:00"},
	} {
		if got := truncBucket(c.gran, at(c.in)); got != at(c.want) {
			t.Errorf("%s(%s) = %s, want %s", c.gran, c.in, time.Unix(got, 0).UTC().Format("2006-01-02 15:04"), c.want)
		}
	}
}

func TestSameRows(t *testing.T) {
	a := [][]cell{{numCell(1), {S: "x"}, {Null: true}}}
	if err := sameRows(a, a, 0); err != nil {
		t.Error(err)
	}
	b := [][]cell{{numCell(1 + 1e-12), {S: "x"}, {Null: true}}}
	if err := sameRows(a, b, oracleTol); err != nil {
		t.Errorf("within tolerance: %v", err)
	}
	if err := sameRows(a, b, 0); err == nil {
		t.Error("bit-exact comparison accepted a differing float")
	}
	if err := sameRows(a, [][]cell{{numCell(1), {S: "y"}, {Null: true}}}, oracleTol); err == nil {
		t.Error("differing strings accepted")
	}
	if err := sameRows(a, nil, oracleTol); err == nil {
		t.Error("differing row counts accepted")
	}
}

// TestOracleAgreesWithTheExecutor runs statements of every shape the
// workloads emit through the in-process analyzer and through the
// brute-force oracle.
func TestOracleAgreesWithTheExecutor(t *testing.T) {
	w := worldFor(1)
	s, err := newStack(w, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	rng := rand.New(rand.NewSource(7))
	var stmts []stmt
	for i, q := range dashSet(w, rng, false) {
		if i%3 == 0 {
			stmts = append(stmts, q)
		}
	}
	stream := newScanStream(w, rng, 0, 1)
	for i := 0; i < 15; i++ {
		stmts = append(stmts, stream.next())
	}
	for i := range stmts {
		q := &stmts[i]
		out, err := s.an.VQL(context.Background(), q.SQL)
		if err != nil {
			t.Fatalf("%s: %v", q.SQL, err)
		}
		got := make([][]cell, len(out.Rows))
		for r, row := range out.Rows {
			for _, v := range row {
				switch x := v.(type) {
				case nil:
					got[r] = append(got[r], cell{Null: true})
				case int64:
					got[r] = append(got[r], numCell(float64(x)))
				case float64:
					got[r] = append(got[r], numCell(x))
				case string:
					got[r] = append(got[r], cell{S: x})
				}
			}
		}
		if len(got) == 0 {
			t.Errorf("%s: no rows", q.SQL)
		}
		if err := sameRows(got, w.evaluate(q), oracleTol); err != nil {
			t.Errorf("%s: %v", q.SQL, err)
		}
	}
}
