package api

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"vap/internal/core"
	"vap/internal/geo"
	"vap/internal/store"
)

// TestCatalogChurnUnderQueries races the published catalog view and the
// shared cached plans (run under -race in CI): goroutines re-put meters —
// re-zoned and relocated in and out of a box — while others send cached
// and never-repeating zone, bbox and id-list statements and
// /api/customers. Nothing may race or panic, and once the churn stops every
// statement must answer what a fresh analyzer answers over the final
// catalog.
func TestCatalogChurnUnderQueries(t *testing.T) {
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	const meters, hours = 24, 48
	zones := []store.ZoneType{store.ZoneResidential, store.ZoneCommercial, store.ZoneIndustrial}
	place := func(rng *rand.Rand, id int64) store.Meter {
		// Half the draws land inside bbox(10.0, 55.5, 10.2, 55.7).
		return store.Meter{
			ID:       id,
			Location: geo.Point{Lon: 10.0 + 0.4*rng.Float64(), Lat: 55.5 + 0.2*rng.Float64()},
			Zone:     zones[rng.Intn(len(zones))],
		}
	}
	rng := rand.New(rand.NewSource(1))
	for id := int64(1); id <= meters; id++ {
		if err := st.PutMeter(place(rng, id)); err != nil {
			t.Fatal(err)
		}
		for h := 0; h < hours; h++ {
			if err := st.Append(id, store.Sample{TS: vqlBase + int64(h)*3600, Value: float64(id)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	srv := httptest.NewServer(NewServer(core.NewAnalyzer(st), nil).Routes())
	t.Cleanup(srv.Close)

	cached := []string{
		"SELECT meter, sum(value) FROM meters WHERE zone = 'residential' GROUP BY meter",
		"SELECT zone, count(*) FROM meters WHERE bbox(10.0, 55.5, 10.2, 55.7) GROUP BY zone",
		"SELECT meter, mean(value) FROM meters WHERE meter IN (1, 3, 5, 7, 11) AND zone = 'commercial' GROUP BY meter",
		"SELECT meter, max(value) FROM meters WHERE meter IN (2, 4, 6, 8) AND bbox(10.0, 55.5, 10.2, 55.7) GROUP BY meter",
	}
	fresh := func(i int) string { // a text no other request sends
		return fmt.Sprintf("SELECT meter, count(*) FROM meters WHERE zone = 'industrial' AND time >= %d GROUP BY meter", vqlBase+int64(i))
	}

	// The re-putters run until the queriers are done (capped, so an
	// unthrottled writer cannot outlast a slow host).
	stop := make(chan struct{})
	var putters, queriers sync.WaitGroup
	for w := 0; w < 2; w++ {
		putters.Add(1)
		go func(seed int64) {
			defer putters.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 100_000; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := st.PutMeter(place(rng, 1+rng.Int63n(meters))); err != nil {
					t.Errorf("re-put: %v", err)
					return
				}
			}
		}(int64(w + 2))
	}
	for w := 0; w < 3; w++ {
		queriers.Add(1)
		go func(w int) {
			defer queriers.Done()
			for i := 0; i < 60; i++ {
				var status int
				switch i % 3 {
				case 0:
					status, _ = postQuery(t, srv.URL, cached[(i/3+w)%len(cached)])
				case 1:
					status, _ = postQuery(t, srv.URL, fresh(w*1000+i))
				default:
					resp, err := http.Get(srv.URL + "/api/customers?zone=residential&bbox=10.0,55.5,10.2,55.7")
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
					// No meter may match at some instant: 404 is an answer.
					if status = resp.StatusCode; status == http.StatusNotFound {
						status = http.StatusOK
					}
				}
				if status != http.StatusOK {
					t.Errorf("querier %d request %d: status %d", w, i, status)
					return
				}
			}
		}(w)
	}
	queriers.Wait()
	close(stop)
	putters.Wait()

	oracle := core.NewAnalyzer(st)
	for _, q := range append(cached, fresh(-1)) {
		status, out := postQuery(t, srv.URL, q)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %v", q, status, out)
		}
		want, err := oracle.VQL(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if got, exp := fmt.Sprint(out["rows"]), fmt.Sprint(want.Rows); got != exp {
			t.Errorf("%s after the churn:\n got  %s\n want %s", q, got, exp)
		}
	}
}
