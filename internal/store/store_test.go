package store

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/atpg"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/tpg"
)

// prepared runs a real (small) preparation to exercise the codec on
// genuine artifacts.
func prepared(t testing.TB) *core.Flow {
	t.Helper()
	c, err := bench.ScanView("s420")
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.Prepare(c, atpg.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// A flow must survive the disk round trip behaviorally: the rebuilt flow
// yields a bit-identical Detection Matrix even though the circuit was
// re-parsed from its .bench source (gate IDs may differ; gate names and
// the fault order may not).
func TestFlowRoundTripBitIdenticalMatrix(t *testing.T) {
	f := prepared(t)
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "bench:s420|test"
	if err := s.SaveFlow(key, f); err != nil {
		t.Fatal(err)
	}
	back, err := s.LoadFlow(key)
	if err != nil {
		t.Fatal(err)
	}
	if back == nil {
		t.Fatal("saved flow not found")
	}
	if back.Circuit.Name != f.Circuit.Name ||
		len(back.Circuit.Inputs) != len(f.Circuit.Inputs) ||
		len(back.AllFaults) != len(f.AllFaults) ||
		len(back.TargetFaults) != len(f.TargetFaults) ||
		len(back.Patterns) != len(f.Patterns) {
		t.Fatalf("flow shape changed: %d/%d faults, %d/%d targets, %d/%d patterns",
			len(back.AllFaults), len(f.AllFaults),
			len(back.TargetFaults), len(f.TargetFaults),
			len(back.Patterns), len(f.Patterns))
	}
	for i, p := range f.Patterns {
		if !back.Patterns[i].Equal(p) {
			t.Fatalf("pattern %d changed in round trip", i)
		}
	}
	if back.ATPG.Stats != f.ATPG.Stats {
		t.Errorf("ATPG stats changed: %+v vs %+v", back.ATPG.Stats, f.ATPG.Stats)
	}

	gen, err := tpg.ByName("adder", len(f.Circuit.Inputs))
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Cycles: 48, Seed: 2}
	want, err := f.BuildMatrix(gen, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.BuildMatrix(gen, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumFaults != want.NumFaults || len(got.Rows) != len(want.Rows) {
		t.Fatalf("matrix shape %dx%d, want %dx%d",
			len(got.Rows), got.NumFaults, len(want.Rows), want.NumFaults)
	}
	for i := range want.Rows {
		if !got.Rows[i].Equal(want.Rows[i]) {
			t.Fatalf("matrix row %d differs after flow round trip", i)
		}
	}
	if !reflect.DeepEqual(got.FirstDetection, want.FirstDetection) {
		t.Fatal("first-detection table differs after flow round trip")
	}
}

// A matrix must survive the disk round trip exactly.
func TestMatrixRoundTrip(t *testing.T) {
	f := prepared(t)
	gen, err := tpg.ByName("adder", len(f.Circuit.Inputs))
	if err != nil {
		t.Fatal(err)
	}
	m, err := f.BuildMatrix(gen, core.Options{Cycles: 48, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "bench:s420|test|matrix"
	if err := s.SaveMatrix(key, m); err != nil {
		t.Fatal(err)
	}
	back, err := s.LoadMatrix(key)
	if err != nil {
		t.Fatal(err)
	}
	if back == nil {
		t.Fatal("saved matrix not found")
	}
	if back.NumFaults != m.NumFaults || len(back.Rows) != len(m.Rows) ||
		back.GateEvals != m.GateEvals || back.PatternsSimulated != m.PatternsSimulated ||
		back.TripletSims != m.TripletSims {
		t.Fatalf("matrix metadata changed: %+v vs %+v", back, m)
	}
	for i := range m.Rows {
		if !back.Rows[i].Equal(m.Rows[i]) {
			t.Fatalf("row %d changed", i)
		}
		if !back.Triplets[i].Delta.Equal(m.Triplets[i].Delta) ||
			!back.Triplets[i].Theta.Equal(m.Triplets[i].Theta) ||
			back.Triplets[i].Cycles != m.Triplets[i].Cycles {
			t.Fatalf("triplet %d changed", i)
		}
	}
	if !reflect.DeepEqual(back.FirstDetection, m.FirstDetection) {
		t.Fatal("first-detection table changed")
	}
}

// Missing keys are absent, not errors; corrupt records are errors, not
// flows; a record under the wrong key (hash collision or copied file) is
// rejected.
func TestLoadEdgeCases(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if f, err := s.LoadFlow("absent"); err != nil || f != nil {
		t.Errorf("absent flow: got (%v, %v), want (nil, nil)", f, err)
	}
	if m, err := s.LoadMatrix("absent"); err != nil || m != nil {
		t.Errorf("absent matrix: got (%v, %v), want (nil, nil)", m, err)
	}

	f := prepared(t)
	if err := s.SaveFlow("key-a", f); err != nil {
		t.Fatal(err)
	}
	// Same record filed under another key: key verification must reject.
	src := s.path("flows", "key-a")
	dst := s.path("flows", "key-b")
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadFlow("key-b"); err == nil {
		t.Error("record with mismatched key accepted")
	}
	// Corruption is an error.
	if err := os.WriteFile(src, []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadFlow("key-a"); err == nil {
		t.Error("corrupt record accepted")
	}
}

// The acceptance criterion of the service PR: an Engine restarted against
// a warm store serves its first solve without re-running ATPG — zero
// Prepare and matrix builds, artifacts loaded from disk — and the solution
// is bit-identical to the cold one.
func TestWarmRestartSkipsATPG(t *testing.T) {
	dir := t.TempDir()
	req := engine.Request{Circuit: "s420", TPG: "adder", Cycles: 48, Seed: 2, Parallelism: 1}

	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := engine.New(engine.Options{Store: s1})
	coldResp, err := cold.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if st := cold.Stats(); st.PrepareBuilds != 1 || st.FlowStoreLoads != 0 || st.StoreErrors != 0 {
		t.Fatalf("cold stats: %+v", st)
	}
	if flows, matrices, err := s1.Len(); err != nil || flows != 1 || matrices != 1 {
		t.Fatalf("store holds %d flows, %d matrices (%v), want 1 and 1", flows, matrices, err)
	}

	// "Restart": a brand-new Engine (empty in-memory caches) on a fresh
	// Store handle over the same directory.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := engine.New(engine.Options{Store: s2})
	warmResp, err := warm.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	st := warm.Stats()
	if st.PrepareBuilds != 0 || st.MatrixBuilds != 0 {
		t.Errorf("warm restart recomputed artifacts: %+v", st)
	}
	if st.FlowStoreLoads != 1 || st.MatrixStoreLoads != 1 {
		t.Errorf("warm restart did not load from the store: %+v", st)
	}
	if st.StoreErrors != 0 {
		t.Errorf("store errors on warm restart: %+v", st)
	}
	if !warmResp.PrepareCached || !warmResp.MatrixCached {
		t.Errorf("warm response does not report cached artifacts: %+v", warmResp)
	}
	if !reflect.DeepEqual(coldResp.Solution, warmResp.Solution) {
		t.Error("warm-restart solution differs from cold solution")
	}
	if coldResp.ATPG != warmResp.ATPG {
		t.Errorf("ATPG summary changed across restart: %+v vs %+v", coldResp.ATPG, warmResp.ATPG)
	}
	if coldResp.Circuit != warmResp.Circuit {
		t.Errorf("circuit summary changed across restart: %+v vs %+v", coldResp.Circuit, warmResp.Circuit)
	}
}

// A corrupt store must degrade to recomputation, not failure.
func TestEngineRecoversFromCorruptStore(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	req := engine.Request{Circuit: "s420", TPG: "adder", Cycles: 48, Seed: 2}
	if _, err := engine.New(engine.Options{Store: s}).Solve(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	// Corrupt every record.
	for _, sub := range []string{"flows", "matrices"} {
		entries, err := os.ReadDir(filepath.Join(dir, sub))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if err := os.WriteFile(filepath.Join(dir, sub, e.Name()), []byte("{broken"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng := engine.New(engine.Options{Store: s})
	resp, err := eng.Solve(context.Background(), req)
	if err != nil {
		t.Fatalf("corrupt store failed the solve: %v", err)
	}
	if resp.Solution.NumTriplets() == 0 {
		t.Error("degenerate solution after store corruption")
	}
	st := eng.Stats()
	if st.StoreErrors == 0 {
		t.Error("corrupt records not counted in StoreErrors")
	}
	if st.PrepareBuilds != 1 || st.MatrixBuilds != 1 {
		t.Errorf("corrupt store should force recomputation: %+v", st)
	}
}

// The shared-directory crash scenario of the fsync fix: a torn record (a
// valid prefix cut mid-file, as a crash without fsync could publish) must
// be a counted store error followed by recomputation — never a fatal
// request failure, never silently accepted.
func TestTornRecordIsCountedAndRecomputed(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	req := engine.Request{Circuit: "s420", TPG: "adder", Cycles: 48, Seed: 2}
	if _, err := engine.New(engine.Options{Store: s}).Solve(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	// Tear every record in half — a truncated-but-prefix-valid file, the
	// exact artifact a crashed peer without the fsync could leave behind.
	for _, kind := range []Kind{KindFlows, KindMatrices} {
		entries, err := os.ReadDir(fmt.Sprintf("%s/%s", dir, kind))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			p := fmt.Sprintf("%s/%s/%s", dir, kind, e.Name())
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng := engine.New(engine.Options{Store: s})
	resp, err := eng.Solve(context.Background(), req)
	if err != nil {
		t.Fatalf("torn records failed the solve: %v", err)
	}
	if resp.Solution.NumTriplets() == 0 {
		t.Error("degenerate solution after torn records")
	}
	st := eng.Stats()
	if st.StoreReadErrors == 0 {
		t.Errorf("torn records not counted as read errors: %+v", st)
	}
	if st.PrepareBuilds != 1 || st.MatrixBuilds != 1 {
		t.Errorf("torn records should force recomputation: %+v", st)
	}
}

// BenchmarkRestart reports a daemon's first solve cold (empty store: full
// ATPG + matrix build) and warm (artifacts on disk). Nothing checks the
// ratio; TestWarmRestartSkipsATPG checks that the warm restart runs no
// ATPG, the store's reason to exist.
func BenchmarkRestart(b *testing.B) {
	req := engine.Request{Circuit: "s420", TPG: "adder", Cycles: 48, Seed: 2}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s, err := Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := engine.New(engine.Options{Store: s}).Solve(context.Background(), req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm-restart", func(b *testing.B) {
		dir := b.TempDir()
		s, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := engine.New(engine.Options{Store: s}).Solve(context.Background(), req); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := engine.New(engine.Options{Store: s}).Solve(context.Background(), req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
