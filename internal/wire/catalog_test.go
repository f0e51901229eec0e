package wire

import (
	"database/sql"
	"fmt"
	"net/http"
	"slices"
	"testing"

	"vap/internal/geo"
	"vap/internal/govern"
	"vap/internal/store"
)

// wireMeters runs a `SELECT meter, sum(value) …` statement over the wire
// and returns the meter column.
func wireMeters(t *testing.T, db *sql.DB, q string) []int64 {
	t.Helper()
	rows, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var ids []int64
	for rows.Next() {
		var id int64
		var sum float64
		if err := rows.Scan(&id, &sum); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return ids
}

// httpMeters runs the same statement over POST /api/query and returns the
// meter column and the response's "meters" count.
func httpMeters(t *testing.T, url, q string) ([]int64, int) {
	t.Helper()
	status, out := postQuery(t, url, "", q)
	if status != http.StatusOK {
		t.Fatalf("HTTP status %d: %v", status, out)
	}
	var ids []int64
	for _, r := range out["rows"].([]any) {
		ids = append(ids, int64(r.([]any)[0].(float64)))
	}
	return ids, int(out["meters"].(float64))
}

// TestCatalogChangeReachesCachedStatement: the plan cache is keyed by
// statement text and holds no resolved meters, and the catalog view is
// rebuilt after every Put, so the same text executed after a catalog change
// selects the new meter set on both doors — a meter registered inside the
// zone and the box joins, and one re-zoned and moved out of both leaves.
func TestCatalogChangeReachesCachedStatement(t *testing.T) {
	s := newStack(t, govern.Config{}, nil)
	db := s.open(t, "vap:@"+s.addr+"/vap")
	stmts := map[string]string{
		"zone": "SELECT meter, sum(value) FROM meters WHERE zone = 'residential' GROUP BY meter",
		"bbox": "SELECT meter, sum(value) FROM meters WHERE bbox(10.0, 55.5, 10.2, 55.65) GROUP BY meter",
	}
	check := func(phase string, want []int64) {
		t.Helper()
		for name, q := range stmts {
			// Each door runs the text twice: the second run is a hit on the
			// entry the first one left.
			for i := 0; i < 2; i++ {
				if got := wireMeters(t, db, q); !slices.Equal(got, want) {
					t.Errorf("%s, %s statement over the wire: meters %v, want %v", phase, name, got, want)
				}
				got, n := httpMeters(t, s.http.URL, q)
				if !slices.Equal(got, want) || n != len(want) {
					t.Errorf("%s, %s statement over HTTP: meters %v (\"meters\": %d), want %v", phase, name, got, n, want)
				}
			}
		}
	}
	check("before", []int64{1, 2})

	// (a) A new residential meter inside the box.
	if err := s.st.PutMeter(store.Meter{ID: 5, Location: geo.Point{Lon: 10.15, Lat: 55.61}, Zone: store.ZoneResidential}); err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 48; h++ {
		if err := s.st.Append(5, store.Sample{TS: testBase + int64(h)*3600, Value: 5}); err != nil {
			t.Fatal(err)
		}
	}
	check("after registering meter 5", []int64{1, 2, 5})

	// (b) Meter 1 re-zoned and moved out of the box.
	if err := s.st.PutMeter(store.Meter{ID: 1, Location: geo.Point{Lon: 10.40, Lat: 55.75}, Zone: store.ZoneCommercial}); err != nil {
		t.Fatal(err)
	}
	check("after re-zoning and moving meter 1", []int64{2, 5})

	// The old and new zones' totals over HTTP are the fresh sums.
	_, out := postQuery(t, s.http.URL, "", "SELECT zone, count(*) FROM meters WHERE zone = 'commercial' GROUP BY zone")
	if got := fmt.Sprint(out["rows"]); got != "[[commercial 96]]" {
		t.Errorf("commercial zone after the move: rows %s, want [[commercial 96]]", got)
	}
}
