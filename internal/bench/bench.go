// Package bench provides the benchmark circuit suite used by the
// experiments: deterministic synthetic netlists that mirror the interface
// widths (PI/PO/FF counts) and approximate gate counts of the ISCAS'85 and
// ISCAS'89 circuits evaluated in the paper.
//
// The original ISCAS netlists are not redistributable inside this
// self-contained, offline module, so each named circuit here is generated
// from a fixed seed with the published profile: the same number of primary
// inputs, outputs and flip-flops, a comparable amount of random logic with
// reconvergent fanout, and a number of deliberately random-pattern-resistant
// "coincidence cones" (wide AND structures) so that, as in the paper, the
// circuits are not fully testable by random patterns alone. The experiments
// measure the relative behaviour of covering-based reseeding versus
// simulation-driven search on the Detection Matrices these circuits induce;
// that structure is preserved by the substitution (see README "Reproducing
// the paper's tables").
package bench

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/netlist"
)

// Profile describes a benchmark circuit's interface and size.
type Profile struct {
	Name      string
	Inputs    int // primary inputs
	Outputs   int // primary outputs
	FFs       int // D flip-flops (0 for the combinational c-series)
	Gates     int // approximate logic gate budget
	HardCones int // random-pattern-resistant cones to embed
	Seed      int64
}

// ScanInputs returns the pattern width of the full-scan test view:
// primary inputs plus pseudo inputs (one per flip-flop).
func (p Profile) ScanInputs() int { return p.Inputs + p.FFs }

// profiles lists the circuits appearing in the paper's Tables 1 and 2, with
// interface counts from the published ISCAS benchmark tables.
var profiles = []Profile{
	// ISCAS'85 combinational circuits.
	{Name: "c432", Inputs: 36, Outputs: 7, Gates: 160, HardCones: 2},
	{Name: "c499", Inputs: 41, Outputs: 32, Gates: 202, HardCones: 2},
	{Name: "c880", Inputs: 60, Outputs: 26, Gates: 383, HardCones: 3},
	{Name: "c1355", Inputs: 41, Outputs: 32, Gates: 546, HardCones: 3},
	{Name: "c1908", Inputs: 33, Outputs: 25, Gates: 880, HardCones: 4},
	{Name: "c2670", Inputs: 233, Outputs: 140, Gates: 1193, HardCones: 5},
	{Name: "c3540", Inputs: 50, Outputs: 22, Gates: 1669, HardCones: 6},
	{Name: "c5315", Inputs: 178, Outputs: 123, Gates: 2307, HardCones: 6},
	{Name: "c6288", Inputs: 32, Outputs: 32, Gates: 2416, HardCones: 4},
	{Name: "c7552", Inputs: 207, Outputs: 108, Gates: 3512, HardCones: 8},
	// ISCAS'89 sequential circuits (used in full-scan form).
	{Name: "s420", Inputs: 18, Outputs: 1, FFs: 21, Gates: 218, HardCones: 2},
	{Name: "s641", Inputs: 35, Outputs: 24, FFs: 19, Gates: 379, HardCones: 2},
	{Name: "s820", Inputs: 18, Outputs: 19, FFs: 5, Gates: 289, HardCones: 2},
	{Name: "s838", Inputs: 34, Outputs: 1, FFs: 32, Gates: 446, HardCones: 3},
	{Name: "s953", Inputs: 16, Outputs: 23, FFs: 29, Gates: 395, HardCones: 3},
	{Name: "s1238", Inputs: 14, Outputs: 14, FFs: 18, Gates: 508, HardCones: 3},
	{Name: "s1423", Inputs: 17, Outputs: 5, FFs: 74, Gates: 657, HardCones: 3},
	{Name: "s5378", Inputs: 35, Outputs: 49, FFs: 179, Gates: 2779, HardCones: 6},
	{Name: "s9234", Inputs: 36, Outputs: 39, FFs: 211, Gates: 5597, HardCones: 10},
	{Name: "s13207", Inputs: 62, Outputs: 152, FFs: 638, Gates: 7951, HardCones: 12},
	{Name: "s15850", Inputs: 77, Outputs: 150, FFs: 534, Gates: 9772, HardCones: 14},
}

// Profiles returns the benchmark profiles in suite order.
func Profiles() []Profile {
	out := make([]Profile, len(profiles))
	copy(out, profiles)
	for i := range out {
		out[i].Seed = seedFor(out[i].Name)
	}
	return out
}

// List returns the benchmark circuit names in suite order.
func List() []string {
	out := make([]string, len(profiles))
	for i, p := range profiles {
		out[i] = p.Name
	}
	return out
}

// ProfileByName returns the profile of a named benchmark.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range profiles {
		if p.Name == name {
			p.Seed = seedFor(name)
			return p, true
		}
	}
	return Profile{}, false
}

// seedFor derives a stable per-circuit generation seed from the name.
func seedFor(name string) int64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return int64(h & 0x7fffffffffffffff)
}

// Named generates the benchmark circuit with the given name. Sequential
// circuits are returned with their flip-flops in place; use ScanView (or
// Circuit.FullScan) for the combinational test view.
func Named(name string) (*netlist.Circuit, error) {
	p, ok := ProfileByName(name)
	if !ok {
		return nil, fmt.Errorf("bench: unknown circuit %q (known: %v)", name, List())
	}
	return Generate(p)
}

// ScanView generates the named benchmark and returns its full-scan
// combinational test view, the form consumed by the ATPG and reseeding flow.
func ScanView(name string) (*netlist.Circuit, error) {
	c, err := Named(name)
	if err != nil {
		return nil, err
	}
	return c.FullScan()
}

// Generate builds a circuit from an arbitrary profile. Generation is fully
// deterministic in Profile.Seed.
func Generate(p Profile) (*netlist.Circuit, error) {
	if p.Inputs <= 0 || p.Outputs <= 0 || p.Gates <= 0 || p.FFs < 0 {
		return nil, fmt.Errorf("bench: invalid profile %+v", p)
	}
	rng := rand.New(rand.NewSource(p.Seed))
	c := netlist.New(p.Name)

	b := &builder{c: c, rng: rng}
	for i := 0; i < p.Inputs; i++ {
		name := fmt.Sprintf("I%d", i)
		if _, err := c.AddInput(name); err != nil {
			return nil, err
		}
		b.signals = append(b.signals, name)
	}
	// Flip-flop Q outputs join the signal pool immediately; the DFF gates
	// themselves are declared at the end once their D drivers exist (the
	// netlist package resolves the forward references).
	for i := 0; i < p.FFs; i++ {
		b.signals = append(b.signals, fmt.Sprintf("Q%d", i))
	}

	// Main random-logic body with locality-biased fanin selection: mostly
	// recent signals (deep cones) with occasional long-range edges
	// (reconvergent fanout across the circuit).
	conesAt := conePositions(p, rng)
	coneIdx := 0
	for g := 0; g < p.Gates; g++ {
		if coneIdx < len(conesAt) && g == conesAt[coneIdx] {
			b.emitHardCone(16 + rng.Intn(7))
			coneIdx++
		}
		b.emitGate()
	}

	// The locality-biased picker can leave early inputs unused, which would
	// make their faults trivially untestable; fold every unconsumed primary
	// input (or flip-flop output) into the stream through XOR gates.
	if err := b.consumeUnusedSources(p); err != nil {
		return nil, err
	}

	// Wire flip-flop D inputs, preferring dangling signals so that state
	// feedback comes from deep logic and dangling cones become observable
	// through the scan chain.
	dangling := b.dangling()
	for i := 0; i < p.FFs; i++ {
		var d string
		if len(dangling) > 0 {
			d = dangling[len(dangling)-1]
			dangling = dangling[:len(dangling)-1]
		} else {
			d = b.pick()
		}
		if _, err := c.AddGate(fmt.Sprintf("Q%d", i), netlist.DFF, d); err != nil {
			return nil, err
		}
	}

	// Collect the remaining dangling signals into output trees until
	// exactly p.Outputs roots remain.
	dangling = b.dangling()
	for len(dangling) > p.Outputs {
		kind := netlist.Xor // parity collectors never mask their operands
		name := fmt.Sprintf("PO_T%d", b.nGates)
		b.nGates++
		if _, err := c.AddGate(name, kind, dangling[0], dangling[1]); err != nil {
			return nil, err
		}
		dangling = append(dangling[2:], name)
	}
	for _, d := range dangling {
		if err := c.MarkOutput(d); err != nil {
			return nil, err
		}
	}
	// If the profile wants more outputs than we have sinks, tap internal
	// signals.
	for extra := len(dangling); extra < p.Outputs; extra++ {
		if err := c.MarkOutput(b.pick()); err != nil {
			return nil, err
		}
	}

	if err := c.Finalize(); err != nil {
		return nil, err
	}
	return c, nil
}

// conePositions spreads the hard cones evenly through the gate body.
func conePositions(p Profile, rng *rand.Rand) []int {
	if p.HardCones <= 0 {
		return nil
	}
	out := make([]int, p.HardCones)
	span := p.Gates / (p.HardCones + 1)
	if span == 0 {
		span = 1
	}
	for i := range out {
		out[i] = (i+1)*span + rng.Intn(span/2+1) - span/4
		if out[i] < 0 {
			out[i] = 0
		}
		if out[i] >= p.Gates {
			out[i] = p.Gates - 1
		}
	}
	sort.Ints(out)
	return out
}

type builder struct {
	c       *netlist.Circuit
	rng     *rand.Rand
	signals []string
	nGates  int
	// parents[s] lists the direct fanins of signal s, used to avoid wiring
	// a signal together with its own parent (x with y=f(x, ...) induces
	// implications like x=1 ⇒ y=1 that make many pin faults redundant).
	parents map[string][]string
}

func (b *builder) recordParents(name string, fanin []string) {
	if b.parents == nil {
		b.parents = make(map[string][]string)
	}
	b.parents[name] = fanin
}

// related reports whether a is a direct parent or child of b.
func (b *builder) related(a, s string) bool {
	for _, p := range b.parents[a] {
		if p == s {
			return true
		}
	}
	for _, p := range b.parents[s] {
		if p == a {
			return true
		}
	}
	return false
}

// pick selects a fanin signal with locality bias.
func (b *builder) pick() string {
	n := len(b.signals)
	if b.rng.Intn(100) < 65 {
		// Recent window: the last 40 signals.
		w := 250
		if w > n {
			w = n
		}
		return b.signals[n-1-b.rng.Intn(w)]
	}
	return b.signals[b.rng.Intn(n)]
}

// pickDistinct selects k distinct, pairwise-unrelated fanin signals.
// Duplicate fanins (XOR(a,a)) and parent-child pairs (AND(x, OR(x,z)))
// create structural redundancy far beyond what real benchmark circuits
// exhibit, so both are avoided.
func (b *builder) pickDistinct(k int) []string {
	out := make([]string, 0, k)
	seen := make(map[string]bool, k)
	ok := func(s string) bool {
		if seen[s] {
			return false
		}
		for _, prev := range out {
			if b.related(prev, s) {
				return false
			}
		}
		return true
	}
	for tries := 0; len(out) < k && tries < 30*k; tries++ {
		s := b.pick()
		if ok(s) {
			seen[s] = true
			out = append(out, s)
		}
	}
	// Tiny circuits may not have k acceptable signals in range; fall back
	// to a full scan relaxing the relatedness constraint.
	for i := 0; len(out) < k && i < len(b.signals); i++ {
		s := b.signals[len(b.signals)-1-i]
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

var gateMix = []struct {
	t      netlist.GateType
	weight int
	fanin  int // 0 = variable 2..4
}{
	{netlist.Nand, 28, 0},
	{netlist.Nor, 13, 0},
	{netlist.And, 14, 0},
	{netlist.Or, 14, 0},
	{netlist.Not, 12, 1},
	{netlist.Xor, 9, 2},
	{netlist.Xnor, 5, 2},
	{netlist.Buf, 5, 1},
}

func (b *builder) emitGate() {
	total := 0
	for _, m := range gateMix {
		total += m.weight
	}
	r := b.rng.Intn(total)
	var t netlist.GateType
	var nf int
	for _, m := range gateMix {
		if r < m.weight {
			t = m.t
			nf = m.fanin
			break
		}
		r -= m.weight
	}
	if nf == 0 {
		nf = 2
		if b.rng.Intn(100) < 20 {
			nf = 3
		} else if b.rng.Intn(100) < 5 {
			nf = 4
		}
	}
	fanin := b.pickDistinct(nf)
	name := fmt.Sprintf("N%d", b.nGates)
	b.nGates++
	if _, err := b.c.AddGate(name, t, fanin...); err != nil {
		panic(fmt.Sprintf("bench: internal: %v", err)) // names are unique by construction
	}
	b.recordParents(name, fanin)
	b.signals = append(b.signals, name)
}

// emitHardCone builds a wide AND tree over k distinct-ish signals and XORs
// its output into the signal stream. The cone output is 1 with probability
// about 2^-k under random patterns, so faults requiring it are
// random-pattern resistant — the deterministic ATPG (and a seeded TPG
// reaching the right state) can still excite them.
func (b *builder) emitHardCone(k int) {
	leaves := b.pickDistinct(k)
	for len(leaves) > 1 {
		var next []string
		for i := 0; i+1 < len(leaves); i += 2 {
			name := fmt.Sprintf("HC%d", b.nGates)
			b.nGates++
			if _, err := b.c.AddGate(name, netlist.And, leaves[i], leaves[i+1]); err != nil {
				panic(fmt.Sprintf("bench: internal: %v", err))
			}
			b.recordParents(name, []string{leaves[i], leaves[i+1]})
			next = append(next, name)
		}
		if len(leaves)%2 == 1 {
			next = append(next, leaves[len(leaves)-1])
		}
		leaves = next
	}
	// Fold the cone output into the stream through XOR so it is observable
	// regardless of the other operand's value.
	other := b.pickDistinct(1)[0]
	name := fmt.Sprintf("HX%d", b.nGates)
	b.nGates++
	if _, err := b.c.AddGate(name, netlist.Xor, leaves[0], other); err != nil {
		panic(fmt.Sprintf("bench: internal: %v", err))
	}
	b.recordParents(name, []string{leaves[0], other})
	b.signals = append(b.signals, name)
}

// consumeUnusedSources XORs every not-yet-consumed primary input and
// flip-flop output into the signal stream so that no source line is dead.
func (b *builder) consumeUnusedSources(p Profile) error {
	used := make(map[string]bool)
	for _, g := range b.c.Gates {
		for _, f := range g.Fanin {
			used[b.c.Gates[f].Name] = true
		}
	}
	var unused []string
	for i := 0; i < p.Inputs; i++ {
		if n := fmt.Sprintf("I%d", i); !used[n] {
			unused = append(unused, n)
		}
	}
	for i := 0; i < p.FFs; i++ {
		if n := fmt.Sprintf("Q%d", i); !used[n] {
			unused = append(unused, n)
		}
	}
	for _, u := range unused {
		other := b.pickDistinct(1)[0]
		if other == u {
			other = b.pickDistinct(2)[1]
		}
		name := fmt.Sprintf("MIX%d", b.nGates)
		b.nGates++
		if _, err := b.c.AddGate(name, netlist.Xor, u, other); err != nil {
			return err
		}
		b.recordParents(name, []string{u, other})
		b.signals = append(b.signals, name)
	}
	return nil
}

// dangling lists signals with no consumer yet, oldest first, excluding
// primary inputs (an unused PI is legal and stays unused).
func (b *builder) dangling() []string {
	used := make(map[string]bool, len(b.signals))
	for _, g := range b.c.Gates {
		for _, f := range g.Fanin {
			used[b.c.Gates[f].Name] = true
		}
	}
	var out []string
	for _, g := range b.c.Gates {
		if g.Type == netlist.Input {
			continue
		}
		if !used[g.Name] {
			out = append(out, g.Name)
		}
	}
	return out
}
