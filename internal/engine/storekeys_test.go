package engine

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dmatrix"
)

// keyStore is an ArtifactStore that holds nothing and records the keys
// it is asked to save, in order.
type keyStore struct {
	mu    sync.Mutex
	saved []string // guarded by mu
}

func (s *keyStore) LoadFlow(string) (*core.Flow, error)            { return nil, nil }
func (s *keyStore) LoadMatrix(string) (*dmatrix.Matrix, error)     { return nil, nil }
func (s *keyStore) SaveFlow(key string, _ *core.Flow) error        { return s.record(key) }
func (s *keyStore) SaveMatrix(key string, _ *dmatrix.Matrix) error { return s.record(key) }

func (s *keyStore) record(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.saved = append(s.saved, key)
	return nil
}

func (s *keyStore) keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.saved...)
}

// Store records are addressed by the Engine's cache keys, so a store
// written by an earlier build loads only while the keys print the same.
// A cold Solve saves exactly its flow key and its matrix key.
func TestStoreKeysPinned(t *testing.T) {
	st := &keyStore{}
	if _, err := New(Options{Store: st}).Solve(context.Background(), s420Req()); err != nil {
		t.Fatal(err)
	}
	const flow = "bench:s420|atpg:seed=1,rand=640,stall=2,bt=1000,skip=false"
	want := []string{flow, flow + "|tpg:adder,T=48,theta-seed=2"}
	if got := st.keys(); !reflect.DeepEqual(got, want) {
		t.Errorf("saved keys:\n got %q\nwant %q", got, want)
	}
}
