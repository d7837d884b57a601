// Package engine implements the long-lived reseeding Engine behind the
// repro facade's v2 API: a concurrency-safe front door that memoizes the
// expensive per-circuit artifacts and serves covering queries from plain,
// serializable Requests.
//
// An Engine owns two artifact caches:
//
//   - Flows — the output of core.Prepare (collapsed fault list, ATPG test
//     set, target fault list), keyed by circuit identity plus the
//     ATPG tuning options;
//   - Detection Matrices — the output of core.Flow.BuildMatrix, keyed by
//     the flow key plus (generator kind, evolution length T, θ seed).
//
// Both caches deduplicate concurrent identical requests with a
// singleflight group (internal/cache): N goroutines asking for the same
// circuit run exactly one ATPG, and all of them get the same *Flow.
//
// # Cache keying
//
// A circuit is identified by name for built-in benchmarks
// ("bench:<name>") and by a SHA-256 hash of the .bench source for inline
// circuits ("inline:<hash>"), so equal sources share artifacts and any
// textual change is automatically a different key — there is no
// invalidation protocol to get wrong. ATPG options enter the flow key
// after WithDefaults normalization (an explicit default and a zero field
// address the same artifact). Matrix keys add the generator kind — which,
// together with the circuit's input width, fully determines the generator
// — the evolution length, and the θ seed.
//
// Parallelism and Context are deliberately NOT part of any key: the
// repository-wide determinism guarantee makes artifacts bit-identical for
// every worker-pool degree, so a flow prepared at -j 4 is the flow a
// serial caller would have computed.
//
// # Invalidation and bounds
//
// Successful artifacts are memoized for the Engine's lifetime; Flush drops
// everything. Failed or cancelled computations are never memoized — the
// next identical request recomputes. Callers must treat cached artifacts
// as immutable (every library path already does). The caches are unbounded
// by default — appropriate for a fixed benchmark population; a service fed
// unbounded distinct inline circuits or wide cycle sweeps should set
// Options.MaxCachedFlows / MaxCachedMatrices, which evict settled entries
// by random replacement once the bound is reached.
//
// # Persistence
//
// Options.Store plugs a second cache level underneath the in-memory maps:
// every computed artifact is also persisted (internal/store implements the
// on-disk form) and a miss consults the store before recomputing, so a
// restarted process answers its first request without re-running ATPG.
// Store keys are the same cache keys, so the keying discipline — and the
// absence of an invalidation protocol — carries over unchanged. Store
// failures are never fatal: unreadable records are recomputed, failed
// writes keep the in-memory result, and both are counted in
// Stats.StoreErrors. Flush does not touch the store (drop the directory to
// truly start cold).
//
// # Cancellation
//
// Engine.Solve threads its context through every phase: ATPG fault
// simulation, Detection Matrix row batches, and the exact covering solve.
// A Solve cancelled before its covering phase returns the context's error;
// a Solve cancelled during the covering phase returns the best cover found
// so far with Optimal = false (the anytime contract). A caller abandoning
// a shared in-flight computation does not poison it for the other waiters;
// the underlying work is cancelled only when the last waiter is gone.
package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/atpg"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dmatrix"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/setcover"
	"repro/internal/tpg"
)

// Incumbent is one anytime progress snapshot of an exact covering solve in
// flight — the best cover known so far — delivered to the observer of
// Engine.SolveWithObserver. Re-exported from internal/setcover.
type Incumbent = setcover.Incumbent

// Sample is one periodic search-progress snapshot delivered to
// SolveObserver.OnSample. Re-exported from internal/setcover.
type Sample = setcover.Sample

// ArtifactStore is the optional second level of an Engine's artifact
// caches: persistence of Prepare flows and Detection Matrices across
// process restarts, so a freshly started daemon pointed at a warm store
// answers its first request without re-running ATPG. Keys are the Engine's
// own cache keys (circuit identity + normalized options), which already
// encode everything an artifact depends on.
//
// Load returns (nil, nil) when the key is absent. Store failures never fail
// a request: a Load error falls back to recomputation and a Save error
// keeps the in-memory result; both are counted in Stats.StoreErrors.
// Implementations must be safe for concurrent use by any number of
// goroutines; internal/store provides the on-disk implementation.
type ArtifactStore interface {
	LoadFlow(key string) (*core.Flow, error)
	SaveFlow(key string, flow *core.Flow) error
	LoadMatrix(key string) (*dmatrix.Matrix, error)
	SaveMatrix(key string, m *dmatrix.Matrix) error
}

// Options configures a new Engine.
type Options struct {
	// Parallelism is the default worker-pool degree for every phase of
	// every request served by this Engine: ATPG's PODEM search, matrix
	// construction and the exact covering solve. 1 forces serial; 0 (and
	// any negative value) means one worker per available processor.
	// Requests may override it per call.
	Parallelism int
	// MaxCachedFlows / MaxCachedMatrices bound the artifact caches; 0 (the
	// default) means unbounded — right for a fixed benchmark population,
	// wrong for a service fed unbounded distinct inline circuits or cycle
	// sweeps, which should set bounds to cap resident memory. Eviction is
	// random replacement of settled entries; see internal/cache.
	MaxCachedFlows    int
	MaxCachedMatrices int
	// Store, when non-nil, persists computed flows and matrices and serves
	// cache misses from disk before recomputing — the warm-restart path.
	// The in-memory caches stay in front of it, so a running Engine reads
	// each stored artifact at most once.
	Store ArtifactStore
}

// Stats is a snapshot of an Engine's cache effectiveness counters.
type Stats struct {
	// PrepareBuilds counts ATPG preparations actually executed;
	// PrepareHits counts requests served from the flow cache or a shared
	// in-flight preparation.
	PrepareBuilds int64 `json:"prepare_builds"`
	PrepareHits   int64 `json:"prepare_hits"`
	// MatrixBuilds / MatrixHits are the same split for Detection Matrices.
	MatrixBuilds int64 `json:"matrix_builds"`
	MatrixHits   int64 `json:"matrix_hits"`
	// Solves counts covering solves performed (solves are never cached:
	// they are cheap next to the artifacts and carry per-request budgets).
	Solves int64 `json:"solves"`
	// FlowStoreLoads / MatrixStoreLoads count artifacts served from the
	// persistent ArtifactStore instead of being recomputed (the
	// warm-restart path); they are disjoint from the Builds and Hits
	// counters above. StoreReadErrors counts failed store reads (each
	// falls back to recomputation), StoreWriteErrors counts failed store
	// writes (the in-memory result is kept), and StoreErrors is their sum
	// — kept for compatibility with existing dashboards. StoreMisses
	// counts store consultations that found the key absent (a clean miss,
	// not an error). All are zero on an Engine without a Store.
	FlowStoreLoads   int64 `json:"flow_store_loads"`
	MatrixStoreLoads int64 `json:"matrix_store_loads"`
	StoreReadErrors  int64 `json:"store_read_errors"`
	StoreWriteErrors int64 `json:"store_write_errors"`
	StoreMisses      int64 `json:"store_misses"`
	StoreErrors      int64 `json:"store_errors"`
}

// Engine is the long-lived front door of the reseeding flow. It is safe
// for concurrent use by any number of goroutines; create one per process
// (or per isolation domain) and share it.
type Engine struct {
	parallelism int
	store       ArtifactStore

	flows    cache.Group[string, *core.Flow]
	matrices cache.Group[matrixKey, *dmatrix.Matrix]

	prepareBuilds    atomic.Int64
	prepareHits      atomic.Int64
	matrixBuilds     atomic.Int64
	matrixHits       atomic.Int64
	solves           atomic.Int64
	flowStoreLoads   atomic.Int64
	matrixStoreLoads atomic.Int64
	storeReadErrors  atomic.Int64
	storeWriteErrors atomic.Int64
	storeMisses      atomic.Int64
}

type matrixKey struct {
	flow   string
	kind   string
	cycles int
	seed   int64
}

// String is the matrix key's stable persistent-store form.
func (k matrixKey) String() string {
	return fmt.Sprintf("%s|tpg:%s,T=%d,theta-seed=%d", k.flow, k.kind, k.cycles, k.seed)
}

// New returns an Engine with the given defaults.
func New(opts Options) *Engine {
	e := &Engine{parallelism: opts.Parallelism, store: opts.Store}
	e.flows.SetLimit(opts.MaxCachedFlows)
	e.matrices.SetLimit(opts.MaxCachedMatrices)
	return e
}

// Stats returns a snapshot of the cache counters.
func (e *Engine) Stats() Stats {
	read, write := e.storeReadErrors.Load(), e.storeWriteErrors.Load()
	return Stats{
		PrepareBuilds:    e.prepareBuilds.Load(),
		PrepareHits:      e.prepareHits.Load(),
		MatrixBuilds:     e.matrixBuilds.Load(),
		MatrixHits:       e.matrixHits.Load(),
		Solves:           e.solves.Load(),
		FlowStoreLoads:   e.flowStoreLoads.Load(),
		MatrixStoreLoads: e.matrixStoreLoads.Load(),
		StoreReadErrors:  read,
		StoreWriteErrors: write,
		StoreMisses:      e.storeMisses.Load(),
		StoreErrors:      read + write,
	}
}

// Flush drops every cached flow and matrix. In-flight computations finish
// for their current waiters but are not memoized.
func (e *Engine) Flush() {
	e.flows.Flush()
	e.matrices.Flush()
}

// flowKeyFor derives the flow cache key: circuit identity plus the
// normalized ATPG tuning fields. Parallelism and Context are excluded (see
// the package documentation).
func flowKeyFor(circuitID string, o atpg.Options) string {
	o = o.WithDefaults()
	return fmt.Sprintf("%s|atpg:seed=%d,rand=%d,stall=%d,bt=%d,skip=%t",
		circuitID, o.Seed, o.MaxRandomPatterns, o.RandomStallBlocks,
		o.BacktrackLimit, o.SkipCompaction)
}

// inlineID is the content-addressed identity of an inline .bench source.
func inlineID(source string) string {
	sum := sha256.Sum256([]byte(source))
	return "inline:" + hex.EncodeToString(sum[:])
}

// flow fetches or computes the Flow for key, consulting the persistent
// store (when configured) between the in-memory cache and a fresh
// core.Prepare. build constructs the circuit and runs the ATPG under the
// flight context it is given. The returned bool reports whether the caller
// was spared the ATPG: an in-memory hit, a shared in-flight preparation, or
// a store load.
func (e *Engine) flow(ctx context.Context, key string, atpgOpts atpg.Options,
	load func() (*netlist.Circuit, error)) (*core.Flow, bool, error) {

	// The prepare span is per caller; the inner atpg span is recorded by
	// the flight leader only (a shared flight's inner work happens once,
	// on the leader's trace — joiners see a prepare span with cache_hit).
	sctx, sp := obs.StartSpan(ctx, "prepare")
	defer sp.End()
	var fromStore bool
	f, hit, err := e.flows.Do(sctx, key, func(fctx context.Context) (*core.Flow, error) {
		if e.store != nil {
			switch f, err := e.store.LoadFlow(key); {
			case err != nil:
				e.storeReadErrors.Add(1) // unreadable record: recompute
			case f != nil:
				fromStore = true
				return f, nil
			default:
				e.storeMisses.Add(1)
			}
		}
		c, err := load()
		if err != nil {
			return nil, err
		}
		actx, asp := obs.StartSpan(fctx, "atpg")
		defer asp.End()
		o := atpgOpts
		o.Context = actx
		if o.Parallelism == 0 {
			o.Parallelism = e.parallelism
		}
		f, err := core.Prepare(c, o)
		if err != nil {
			return nil, err
		}
		asp.SetInt("patterns", int64(len(f.Patterns)))
		asp.SetInt("target_faults", int64(len(f.TargetFaults)))
		if e.store != nil {
			if serr := e.store.SaveFlow(key, f); serr != nil {
				e.storeWriteErrors.Add(1)
			}
		}
		return f, nil
	})
	sp.SetInt("cache_hit", b2i(hit))
	sp.SetInt("store_hit", b2i(fromStore))
	if err != nil {
		return nil, hit, fmt.Errorf("engine: prepare %s: %w", key, err)
	}
	switch {
	case hit:
		e.prepareHits.Add(1)
	case fromStore:
		e.flowStoreLoads.Add(1)
	default:
		e.prepareBuilds.Add(1)
	}
	return f, hit || fromStore, nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// PrepareCircuit fetches or computes the Flow of a caller-supplied
// combinational circuit. The cache key is content-addressed (a hash of the
// circuit's .bench rendering), so equal circuits share one preparation and
// any structural change is a fresh key.
func (e *Engine) PrepareCircuit(ctx context.Context, c *netlist.Circuit, opts atpg.Options) (*core.Flow, bool, error) {
	opts = mergeATPG(opts)
	f, hit, err := e.flow(ctx, flowKeyFor(inlineID(netlist.Format(c)), opts), opts,
		func() (*netlist.Circuit, error) { return c, nil })
	return f, hit, err
}

// mergeATPG applies the Engine's one ATPG default: a zero seed means 1, so
// an Engine is deterministic out of the box. Every path into the flow
// cache applies it, so a logically identical request always derives the
// same key.
func mergeATPG(o atpg.Options) atpg.Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// fillCore injects the request context and the engine's default
// parallelism into solver options.
func (e *Engine) fillCore(ctx context.Context, opts core.Options) core.Options {
	if opts.Parallelism == 0 {
		opts.Parallelism = e.parallelism
	}
	opts.Context = ctx
	// Exact inherits Parallelism/Context in core's withDefaults.
	return opts
}

// SolveFlow computes a reseeding solution on a prepared Flow with an
// arbitrary (possibly caller-defined) generator, threading the context
// through matrix construction and the covering solve. Matrices are NOT
// memoized on this path: a caller-supplied Generator is identified only by
// its Name, which is too weak a key (two distinct generators may share
// one). Use Solve for the kind-addressed, fully cached path.
func (e *Engine) SolveFlow(ctx context.Context, flow *core.Flow, gen tpg.Generator, opts core.Options) (*core.Solution, error) {
	e.solves.Add(1)
	return flow.Solve(gen, e.fillCore(ctx, opts))
}

// solveKind is Solve's kind-addressed half: the Detection Matrix is
// fetched from (or inserted into) the matrix cache, then reduced and
// solved under the request's own budgets.
func (e *Engine) solveKind(ctx context.Context, flowKey string, flow *core.Flow,
	kind string, opts core.Options) (*core.Solution, bool, error) {

	gen, err := tpg.ByName(kind, len(flow.Circuit.Inputs))
	if err != nil {
		return nil, false, fmt.Errorf("engine: %w", err)
	}
	opts = e.fillCore(ctx, opts)
	cycles := opts.Cycles
	if cycles == 0 {
		cycles = core.DefaultCycles
	}
	mkey := matrixKey{flow: flowKey, kind: kind, cycles: cycles, seed: opts.Seed}
	mctx, msp := obs.StartSpan(ctx, "matrix")
	var fromStore bool
	m, hit, err := e.matrices.Do(mctx, mkey, func(fctx context.Context) (*dmatrix.Matrix, error) {
		if e.store != nil {
			switch m, err := e.store.LoadMatrix(mkey.String()); {
			case err != nil:
				e.storeReadErrors.Add(1)
			case m != nil:
				fromStore = true
				return m, nil
			default:
				e.storeMisses.Add(1)
			}
		}
		bctx, bsp := obs.StartSpan(fctx, "matrix.build")
		defer bsp.End()
		o := opts
		o.Context = bctx
		m, err := flow.BuildMatrix(gen, o)
		if err != nil {
			return nil, err
		}
		bsp.SetInt("rows", int64(len(m.Rows)))
		bsp.SetInt("gate_evals", m.GateEvals)
		if e.store != nil {
			if serr := e.store.SaveMatrix(mkey.String(), m); serr != nil {
				e.storeWriteErrors.Add(1)
			}
		}
		return m, nil
	})
	msp.SetInt("cache_hit", b2i(hit))
	msp.SetInt("store_hit", b2i(fromStore))
	msp.End()
	if err != nil {
		return nil, hit, fmt.Errorf("engine: matrix %s/%s/T=%d: %w", flowKey, kind, cycles, err)
	}
	switch {
	case hit:
		e.matrixHits.Add(1)
	case fromStore:
		e.matrixStoreLoads.Add(1)
	default:
		e.matrixBuilds.Add(1)
	}
	e.solves.Add(1)
	sol, err := flow.SolveMatrix(m, gen, opts)
	if err != nil {
		return nil, hit, fmt.Errorf("engine: %w", err)
	}
	return sol, hit || fromStore, nil
}

// shortKey abbreviates the hash of an inline circuit id for display.
func shortKey(key string) string {
	if i := strings.Index(key, "inline:"); i >= 0 && len(key) > i+7+12 {
		rest := key[i+7:]
		if j := strings.IndexByte(rest, '|'); j > 12 {
			return key[:i+7] + rest[:12] + "…" + rest[j:]
		}
	}
	return key
}
