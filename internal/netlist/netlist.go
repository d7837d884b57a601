// Package netlist provides a gate-level circuit model in the style of the
// ISCAS'85/'89 benchmark netlists, with a text parser and writer for the
// classic ".bench" format, structural validation, levelization and
// connectivity analysis.
//
// A Circuit is a directed graph of gates. Primary inputs and D flip-flops
// are sources for the combinational logic; primary outputs and flip-flop
// data inputs are its sinks. FullScan converts a sequential circuit into the
// combinational test view used throughout the reseeding flow, exactly as the
// paper does for the ISCAS'89 circuits ("the full-scan version").
package netlist

import (
	"fmt"
	"sort"
)

// GateType identifies the logic function of a gate.
type GateType int

// Gate types. Input gates have no fanin; DFF gates have exactly one fanin
// (the D line) and act as sources for combinational levelization.
const (
	Input GateType = iota
	And
	Or
	Nand
	Nor
	Xor
	Xnor
	Not
	Buf
	DFF
	Const0
	Const1
)

var gateTypeNames = map[GateType]string{
	Input:  "INPUT",
	And:    "AND",
	Or:     "OR",
	Nand:   "NAND",
	Nor:    "NOR",
	Xor:    "XOR",
	Xnor:   "XNOR",
	Not:    "NOT",
	Buf:    "BUFF",
	DFF:    "DFF",
	Const0: "CONST0",
	Const1: "CONST1",
}

var gateTypeByName = map[string]GateType{
	"AND": And, "OR": Or, "NAND": Nand, "NOR": Nor,
	"XOR": Xor, "XNOR": Xnor, "NOT": Not, "BUFF": Buf, "BUF": Buf,
	"DFF": DFF, "CONST0": Const0, "CONST1": Const1,
}

// String returns the canonical .bench name of the gate type.
func (t GateType) String() string {
	if s, ok := gateTypeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("GateType(%d)", int(t))
}

// MinFanin returns the minimum legal fanin count for the type.
func (t GateType) MinFanin() int {
	switch t {
	case Input, Const0, Const1:
		return 0
	case Not, Buf, DFF:
		return 1
	default:
		return 2
	}
}

// MaxFanin returns the maximum legal fanin count for the type, or -1 for
// unbounded.
func (t GateType) MaxFanin() int {
	switch t {
	case Input, Const0, Const1:
		return 0
	case Not, Buf, DFF:
		return 1
	default:
		return -1
	}
}

// Gate is one node of the circuit graph. The output signal of the gate is
// identified with the gate itself; Fanin lists the IDs of the gates whose
// outputs feed this gate.
type Gate struct {
	ID     int
	Name   string
	Type   GateType
	Fanin  []int
	Fanout []int // computed by Finalize
	Level  int   // computed by Finalize; 0 for sources
}

// Circuit is a named gate-level netlist. Build one with New/AddGate/
// MarkOutput and call Finalize before using the analysis methods.
type Circuit struct {
	Name    string
	Gates   []*Gate
	Inputs  []int // primary input gate IDs, in declaration order
	Outputs []int // gate IDs whose output signals are primary outputs
	DFFs    []int // DFF gate IDs, in declaration order

	byName    map[string]int
	order     []int // topological order of combinational evaluation
	maxLevel  int
	finalized bool
}

// New returns an empty circuit with the given name.
func New(name string) *Circuit {
	return &Circuit{Name: name, byName: make(map[string]int)}
}

// NumGates returns the total number of gates, including inputs and DFFs.
func (c *Circuit) NumGates() int { return len(c.Gates) }

// NumLogicGates returns the number of logic gates (everything that is not a
// primary input, constant, or DFF). This is the "gate count" reported for
// benchmark circuits.
func (c *Circuit) NumLogicGates() int {
	n := 0
	for _, g := range c.Gates {
		switch g.Type {
		case Input, DFF, Const0, Const1:
		default:
			n++
		}
	}
	return n
}

// GateByName returns the gate with the given signal name.
func (c *Circuit) GateByName(name string) (*Gate, bool) {
	id, ok := c.byName[name]
	if !ok {
		return nil, false
	}
	return c.Gates[id], true
}

// AddInput declares a primary input signal and returns its gate ID.
func (c *Circuit) AddInput(name string) (int, error) {
	return c.add(name, Input, nil)
}

// AddGate declares a gate computing the given function of the named fanin
// signals and returns its gate ID. Fanin signals may be declared later; the
// references are resolved by Finalize.
func (c *Circuit) AddGate(name string, t GateType, fanin ...string) (int, error) {
	if t == Input {
		return 0, fmt.Errorf("netlist: use AddInput for input %q", name)
	}
	return c.add(name, t, fanin)
}

// pendingRef is a placeholder fanin ID for a signal not yet declared.
type pendingRef struct {
	gate int // gate whose fanin slot needs patching
	slot int
	name string
}

var errRedeclared = fmt.Errorf("netlist: signal redeclared")

func (c *Circuit) add(name string, t GateType, fanin []string) (int, error) {
	if name == "" {
		return 0, fmt.Errorf("netlist: empty signal name")
	}
	if prev, ok := c.byName[name]; ok {
		if c.Gates[prev].Type != unresolved {
			return 0, fmt.Errorf("%w: %q", errRedeclared, name)
		}
		// The signal was referenced before declaration; fill it in.
		g := c.Gates[prev]
		g.Type = t
		g.Fanin = c.resolveFanin(fanin)
		c.registerKind(prev, t)
		c.finalized = false
		return prev, nil
	}
	// Resolve fanins first: resolveFanin may append placeholder gates, and
	// this gate's ID must come after them.
	fanins := c.resolveFanin(fanin)
	id := len(c.Gates)
	g := &Gate{ID: id, Name: name, Type: t, Fanin: fanins}
	c.Gates = append(c.Gates, g)
	c.byName[name] = id
	c.registerKind(id, t)
	c.finalized = false
	return id, nil
}

// registerKind records an input or DFF gate in the circuit-level index.
func (c *Circuit) registerKind(id int, t GateType) {
	switch t {
	case Input:
		c.Inputs = append(c.Inputs, id)
	case DFF:
		c.DFFs = append(c.DFFs, id)
	}
}

// unresolved marks a gate created as a forward reference; Finalize rejects
// circuits that still contain any.
const unresolved GateType = -1

func (c *Circuit) resolveFanin(names []string) []int {
	ids := make([]int, len(names))
	for i, n := range names {
		if id, ok := c.byName[n]; ok {
			ids[i] = id
			continue
		}
		id := len(c.Gates)
		c.Gates = append(c.Gates, &Gate{ID: id, Name: n, Type: unresolved})
		c.byName[n] = id
		ids[i] = id
	}
	return ids
}

// MarkOutput declares the named signal as a primary output.
func (c *Circuit) MarkOutput(name string) error {
	if id, ok := c.byName[name]; ok {
		c.Outputs = append(c.Outputs, id)
		return nil
	}
	// Forward reference: the driver will be declared later.
	id := len(c.Gates)
	c.Gates = append(c.Gates, &Gate{ID: id, Name: name, Type: unresolved})
	c.byName[name] = id
	c.Outputs = append(c.Outputs, id)
	c.finalized = false
	return nil
}

// Finalize validates the structure, computes fanouts, levels and the
// topological evaluation order. It must be called after construction and
// before any analysis or simulation.
func (c *Circuit) Finalize() error {
	for _, g := range c.Gates {
		if g.Type == unresolved {
			return fmt.Errorf("netlist: %s: signal %q referenced but never declared", c.Name, g.Name)
		}
		if n := len(g.Fanin); n < g.Type.MinFanin() || (g.Type.MaxFanin() >= 0 && n > g.Type.MaxFanin()) {
			return fmt.Errorf("netlist: %s: gate %q (%s) has %d fanins", c.Name, g.Name, g.Type, n)
		}
		for _, f := range g.Fanin {
			if f < 0 || f >= len(c.Gates) {
				return fmt.Errorf("netlist: %s: gate %q has invalid fanin id %d", c.Name, g.Name, f)
			}
		}
		g.Fanout = g.Fanout[:0]
	}
	for _, g := range c.Gates {
		for _, f := range g.Fanin {
			c.Gates[f].Fanout = append(c.Gates[f].Fanout, g.ID)
		}
	}

	// Kahn levelization over the combinational graph. Inputs, constants and
	// DFF outputs are sources at level 0; DFF data inputs are sinks (the DFF
	// gate itself never appears "inside" combinational logic).
	indeg := make([]int, len(c.Gates))
	for _, g := range c.Gates {
		if g.Type == Input || g.Type == DFF || g.Type == Const0 || g.Type == Const1 {
			indeg[g.ID] = 0
			continue
		}
		indeg[g.ID] = len(g.Fanin)
	}
	queue := make([]int, 0, len(c.Gates))
	for _, g := range c.Gates {
		if indeg[g.ID] == 0 {
			g.Level = 0
			queue = append(queue, g.ID)
		}
	}
	c.order = c.order[:0]
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		c.order = append(c.order, id)
		g := c.Gates[id]
		if g.Level > c.maxLevel {
			c.maxLevel = g.Level
		}
		for _, fo := range g.Fanout {
			og := c.Gates[fo]
			if og.Type == DFF {
				continue // sequential edge; not part of combinational order
			}
			if l := g.Level + 1; l > og.Level {
				og.Level = l
			}
			indeg[fo]--
			if indeg[fo] == 0 {
				queue = append(queue, fo)
			}
		}
	}
	// DFFs were sources for ordering, but their D input must be computed, so
	// they sit after all combinational gates in evaluation semantics. Check
	// that everything combinational was ordered (i.e. no combinational loop).
	ordered := 0
	for _, g := range c.Gates {
		if g.Type != DFF {
			ordered++
		}
	}
	count := 0
	for _, id := range c.order {
		if c.Gates[id].Type != DFF {
			count++
		}
	}
	if count != ordered {
		return fmt.Errorf("netlist: %s: combinational loop detected (%d of %d gates levelized)", c.Name, count, ordered)
	}
	c.finalized = true
	return nil
}

// Finalized reports whether Finalize has run successfully since the last
// structural change.
func (c *Circuit) Finalized() bool { return c.finalized }

// TopoOrder returns gate IDs in combinational evaluation order: all sources
// first, then each gate after its fanins. DFF gates appear in the order as
// sources (their Q output is available at time 0).
func (c *Circuit) TopoOrder() []int {
	c.mustFinal("TopoOrder")
	out := make([]int, len(c.order))
	copy(out, c.order)
	return out
}

// MaxLevel returns the deepest combinational level.
func (c *Circuit) MaxLevel() int {
	c.mustFinal("MaxLevel")
	return c.maxLevel
}

func (c *Circuit) mustFinal(op string) {
	if !c.finalized {
		panic(fmt.Sprintf("netlist: %s called before Finalize on %q", op, c.Name))
	}
}

// IsCombinational reports whether the circuit contains no DFFs.
func (c *Circuit) IsCombinational() bool { return len(c.DFFs) == 0 }

// FanoutCone returns the set of gate IDs reachable from the given gate
// through combinational edges (not crossing into DFFs), including the gate
// itself. It is the region a fault effect at that gate can reach.
func (c *Circuit) FanoutCone(id int) []int {
	c.mustFinal("FanoutCone")
	seen := make(map[int]bool)
	stack := []int{id}
	var cone []int
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[g] {
			continue
		}
		seen[g] = true
		cone = append(cone, g)
		for _, fo := range c.Gates[g].Fanout {
			if c.Gates[fo].Type == DFF {
				continue
			}
			if !seen[fo] {
				stack = append(stack, fo)
			}
		}
	}
	sort.Ints(cone)
	return cone
}

// Stats summarizes circuit structure.
type Stats struct {
	Name       string
	Inputs     int
	Outputs    int
	DFFs       int
	LogicGates int
	MaxLevel   int
	ByType     map[GateType]int
}

// Stats computes structural statistics. The circuit must be finalized.
func (c *Circuit) Stats() Stats {
	c.mustFinal("Stats")
	s := Stats{
		Name:    c.Name,
		Inputs:  len(c.Inputs),
		Outputs: len(c.Outputs),
		DFFs:    len(c.DFFs),
		ByType:  make(map[GateType]int),
	}
	for _, g := range c.Gates {
		s.ByType[g.Type]++
	}
	s.LogicGates = c.NumLogicGates()
	s.MaxLevel = c.maxLevel
	return s
}

// FullScan returns the combinational test view of a sequential circuit:
// every DFF is removed, its Q output becomes a pseudo primary input and its
// D input a pseudo primary output. Pseudo inputs/outputs are appended after
// the real ones, in DFF declaration order, so pattern bit positions are
// stable. For a combinational circuit it returns a finalized copy.
func (c *Circuit) FullScan() (*Circuit, error) {
	out := New(c.Name + "_scan")
	// Real primary inputs first, preserving order.
	for _, id := range c.Inputs {
		if _, err := out.AddInput(c.Gates[id].Name); err != nil {
			return nil, err
		}
	}
	// Pseudo primary inputs: one per DFF, carrying the DFF's signal name so
	// that fanin references resolve to the scan input.
	for _, id := range c.DFFs {
		if _, err := out.AddInput(c.Gates[id].Name); err != nil {
			return nil, err
		}
	}
	for _, g := range c.Gates {
		switch g.Type {
		case Input, DFF:
			continue
		}
		fanin := make([]string, len(g.Fanin))
		for i, f := range g.Fanin {
			fanin[i] = c.Gates[f].Name
		}
		if _, err := out.AddGate(g.Name, g.Type, fanin...); err != nil {
			return nil, err
		}
	}
	for _, id := range c.Outputs {
		if err := out.MarkOutput(c.Gates[id].Name); err != nil {
			return nil, err
		}
	}
	// Pseudo primary outputs: the D input signals of each DFF.
	for _, id := range c.DFFs {
		d := c.Gates[c.Gates[id].Fanin[0]].Name
		if err := out.MarkOutput(d); err != nil {
			return nil, err
		}
	}
	if err := out.Finalize(); err != nil {
		return nil, err
	}
	return out, nil
}

// Clone returns a deep copy of the circuit in the same finalization state.
func (c *Circuit) Clone() *Circuit {
	out := New(c.Name)
	out.Gates = make([]*Gate, len(c.Gates))
	for i, g := range c.Gates {
		ng := *g
		ng.Fanin = append([]int(nil), g.Fanin...)
		ng.Fanout = append([]int(nil), g.Fanout...)
		out.Gates[i] = &ng
		out.byName[g.Name] = i
	}
	out.Inputs = append([]int(nil), c.Inputs...)
	out.Outputs = append([]int(nil), c.Outputs...)
	out.DFFs = append([]int(nil), c.DFFs...)
	out.order = append([]int(nil), c.order...)
	out.maxLevel = c.maxLevel
	out.finalized = c.finalized
	return out
}

// Eval computes the boolean function of a gate type over fanin values. It is
// the single source of truth for gate semantics: the logic simulator applies
// it bitwise over 64-pattern words, and View.Eval, the fault simulator's
// four-word form, is tested against it.
func Eval(t GateType, in []uint64) uint64 {
	switch t {
	case And, Nand:
		v := ^uint64(0)
		for _, x := range in {
			v &= x
		}
		if t == Nand {
			v = ^v
		}
		return v
	case Or, Nor:
		v := uint64(0)
		for _, x := range in {
			v |= x
		}
		if t == Nor {
			v = ^v
		}
		return v
	case Xor, Xnor:
		v := uint64(0)
		for _, x := range in {
			v ^= x
		}
		if t == Xnor {
			v = ^v
		}
		return v
	case Not:
		return ^in[0]
	case Buf, DFF:
		return in[0]
	case Const0:
		return 0
	case Const1:
		return ^uint64(0)
	default:
		panic(fmt.Sprintf("netlist: Eval on %v", t))
	}
}
