package reseedvet

// The determinism-scoped package lists — the single source of truth the
// scoped analyzers and docs/DEVELOPING.md both point at. Packages are
// matched by import-path suffix (Pass.PathHasSuffix) so fixture modules
// with a different module name exercise the same scoping.

// DeterminismScope is the solver core: every package on the path from a
// Detection Matrix to a Solution, whose outputs must be bit-identical
// for every Parallelism value, across runs, and across warm restarts.
// detsource forbids any reachable nondeterminism source here (wall
// clock, unseeded randomness, environment); maporder forbids map
// iteration order escaping here.
var DeterminismScope = []string{
	"internal/setcover",
	"internal/setcover/corpus",
	// The test generator: its test set and fault classification, the
	// prover's conflict-budgeted verdicts included, feed every matrix.
	"internal/atpg",
	"internal/fsim",
	"internal/dmatrix",
	"internal/core",
	"internal/engine",
	// The gateway: ring placement must agree across processes, the same
	// contract as within one. No search state crosses processes: every
	// solve runs whole on the replica that owns its key.
	"internal/cluster",
}

// WireScope extends DeterminismScope with the serving tier: packages
// whose map iteration order could still leak into a wire response or a
// persisted artifact, even though they legitimately touch the clock
// (deadlines, metrics, modtimes). maporder patrols the union; detsource
// does not, so reseedd can keep timestamping responses.
var WireScope = append([]string{
	"internal/store",
	"internal/server",
}, DeterminismScope...)
