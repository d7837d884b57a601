package cluster_test

// End-to-end tests of the gateway over real reseedd servers
// (internal/server) that share one artifact store.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/store"
)

// newReplica boots one reseedd-shaped server over a fresh serial Engine.
func newReplica(t *testing.T, cfg server.Config) *httptest.Server {
	t.Helper()
	return newReplicaOver(t, engine.New(engine.Options{Parallelism: 1}), cfg)
}

// newReplicaOver is newReplica serving from the given Engine.
func newReplicaOver(t *testing.T, eng *engine.Engine, cfg server.Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(server.New(eng, cfg))
	t.Cleanup(ts.Close)
	return ts
}

// Four clients send c432, s420 and s820 × seeds 1–2 through a gateway over
// two replicas that share one store: once cold, then three times warm.
// Every response is a 200, each key's solution is the same in every wave,
// and the warm waves build no flow or matrix on either replica. No other
// test sends concurrent solves through a gateway to real replicas.
func TestGatewayConcurrentColdWarm(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var replicas []string
	for range 2 {
		ts := newReplicaOver(t, engine.New(engine.Options{Parallelism: 1, Store: st}), server.Config{})
		replicas = append(replicas, ts.URL)
	}
	gw := newGatewayOver(t, replicas...)

	var keys []engine.Request
	for _, circuit := range []string{"c432", "s420", "s820"} {
		for seed := int64(1); seed <= 2; seed++ {
			keys = append(keys, engine.Request{Circuit: circuit, TPG: "adder", Cycles: 32, Seed: seed, Parallelism: 1})
		}
	}
	// wave sends every key once over four clients and returns each key's
	// solution as the replica encoded it.
	wave := func(name string) []json.RawMessage {
		sols := make([]json.RawMessage, len(keys))
		next := make(chan int)
		var wg sync.WaitGroup
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					body, err := json.Marshal(keys[i])
					if err != nil {
						t.Error(err)
						continue
					}
					resp, err := http.Post(gw.URL+"/v1/solve", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Errorf("%s %s seed %d: %v", name, keys[i].Circuit, keys[i].Seed, err)
						continue
					}
					var out struct{ Solution json.RawMessage }
					err = json.NewDecoder(resp.Body).Decode(&out)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK || err != nil {
						t.Errorf("%s %s seed %d: %s, decode error %v", name, keys[i].Circuit, keys[i].Seed, resp.Status, err)
						continue
					}
					sols[i] = out.Solution
				}
			}()
		}
		for i := range keys {
			next <- i
		}
		close(next)
		wg.Wait()
		return sols
	}
	builds := func() (prepare, matrix [2]int64) {
		for i, rep := range replicas {
			resp, err := http.Get(rep + "/v1/stats")
			if err != nil {
				t.Fatal(err)
			}
			var stats struct{ Engine engine.Stats }
			mustDecode(t, resp, &stats)
			resp.Body.Close()
			prepare[i], matrix[i] = stats.Engine.PrepareBuilds, stats.Engine.MatrixBuilds
		}
		return prepare, matrix
	}

	cold := wave("cold")
	prepare, matrix := builds()
	for w := 1; w <= 3; w++ {
		for i, sol := range wave("warm") {
			if !bytes.Equal(sol, cold[i]) {
				t.Errorf("warm wave %d: %s seed %d solution differs from the cold wave's", w, keys[i].Circuit, keys[i].Seed)
			}
		}
	}
	if p, m := builds(); p != prepare || m != matrix {
		t.Errorf("warm waves built: prepare_builds %v → %v, matrix_builds %v → %v", prepare, p, matrix, m)
	}
}
