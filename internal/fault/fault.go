// Package fault models single stuck-at faults on gate-level circuits and
// performs structural equivalence collapsing.
//
// A fault site is either a gate's output line (the stem) or one of its input
// pins (a branch). The target fault list F of the reseeding flow is the
// collapsed list over the full-scan combinational view of the unit under
// test, matching the paper's "target list of stuck-at faults of the
// combinational circuit to be tested".
package fault

import (
	"fmt"

	"repro/internal/netlist"
)

// OutputPin marks a fault on a gate's output line rather than an input pin.
const OutputPin = -1

// Fault is a single stuck-at fault.
type Fault struct {
	Gate     int  // gate ID of the fault site
	Pin      int  // OutputPin for the output line, else fanin pin index
	StuckAt1 bool // true for stuck-at-1, false for stuck-at-0
}

// String renders the fault with signal names resolved against the circuit.
func (f Fault) String(c *netlist.Circuit) string {
	v := 0
	if f.StuckAt1 {
		v = 1
	}
	g := c.Gates[f.Gate]
	if f.Pin == OutputPin {
		return fmt.Sprintf("%s s-a-%d", g.Name, v)
	}
	return fmt.Sprintf("%s.in%d(%s) s-a-%d", g.Name, f.Pin, c.Gates[g.Fanin[f.Pin]].Name, v)
}

// All enumerates the complete uncollapsed fault list: two output-line faults
// per gate and two faults per gate input pin. The circuit must be finalized
// and combinational.
func All(c *netlist.Circuit) ([]Fault, error) {
	if !c.Finalized() {
		return nil, fmt.Errorf("fault: circuit %q not finalized", c.Name)
	}
	if !c.IsCombinational() {
		return nil, fmt.Errorf("fault: circuit %q is sequential; apply FullScan first", c.Name)
	}
	out := make([]Fault, 0, newSlots(c).n())
	for _, g := range c.Gates {
		for _, sa1 := range []bool{false, true} {
			out = append(out, Fault{Gate: g.ID, Pin: OutputPin, StuckAt1: sa1})
		}
		for pin := range g.Fanin {
			for _, sa1 := range []bool{false, true} {
				out = append(out, Fault{Gate: g.ID, Pin: pin, StuckAt1: sa1})
			}
		}
	}
	return out, nil
}

// slots numbers every fault of a circuit densely: gate g's output faults
// take slots base[g] and base[g]+1 (stuck-at-0, stuck-at-1), and its pin
// p's faults base[g]+2p+2 and base[g]+2p+3.
type slots []int32

func newSlots(c *netlist.Circuit) slots {
	base := make(slots, len(c.Gates)+1)
	for i, g := range c.Gates {
		base[i+1] = base[i] + 2*int32(1+len(g.Fanin))
	}
	return base
}

// n returns the number of slots.
func (base slots) n() int { return int(base[len(base)-1]) }

// of returns f's slot, or −1 if f names no fault site of the circuit.
func (base slots) of(f Fault) int32 {
	if f.Gate < 0 || f.Gate >= len(base)-1 || f.Pin < OutputPin || f.Pin >= int(base[f.Gate+1]-base[f.Gate])/2-1 {
		return -1
	}
	s := base[f.Gate] + 2*int32(f.Pin+1)
	if f.StuckAt1 {
		s++
	}
	return s
}

// CollapseStats reports the effect of equivalence collapsing.
type CollapseStats struct {
	Total     int // faults before collapsing
	Collapsed int // representative faults after collapsing
	Classes   int // equivalence classes (== Collapsed)
	MaxClass  int // size of the largest class
}

// Collapse partitions the fault list into structural equivalence classes and
// returns one representative per class, in stable order. The classic rules
// are applied:
//
//   - controlling-value input faults are equivalent to the corresponding
//     output fault (AND: in s-a-0 ≡ out s-a-0; NAND: in s-a-0 ≡ out s-a-1;
//     OR: in s-a-1 ≡ out s-a-1; NOR: in s-a-1 ≡ out s-a-0),
//   - NOT/BUFF input faults are equivalent to the (inverted/equal) output
//     fault, and
//   - a branch fault on a fanout-free line is equivalent to the stem fault.
func Collapse(c *netlist.Circuit, faults []Fault) ([]Fault, CollapseStats, error) {
	if !c.IsCombinational() {
		return nil, CollapseStats{}, fmt.Errorf("fault: circuit %q is sequential", c.Name)
	}
	base := newSlots(c)
	index := make([]int32, base.n()) // by slot: the fault's list index + 1, 0 if not listed
	for i, f := range faults {
		if s := base.of(f); s >= 0 {
			index[s] = int32(i) + 1
		}
	}
	uf := newUnionFind(len(faults))
	merge := func(a, b Fault) {
		ia, ib := index[base.of(a)], index[base.of(b)]
		if ia > 0 && ib > 0 {
			uf.union(int(ia-1), int(ib-1))
		}
	}

	for _, g := range c.Gates {
		switch g.Type {
		case netlist.And, netlist.Nand:
			outVal := g.Type == netlist.Nand // out stuck at 1 for NAND
			for pin := range g.Fanin {
				merge(Fault{g.ID, pin, false}, Fault{g.ID, OutputPin, outVal})
			}
		case netlist.Or, netlist.Nor:
			outVal := g.Type != netlist.Nor // out stuck at 1 for OR
			for pin := range g.Fanin {
				merge(Fault{g.ID, pin, true}, Fault{g.ID, OutputPin, outVal})
			}
		case netlist.Not:
			merge(Fault{g.ID, 0, false}, Fault{g.ID, OutputPin, true})
			merge(Fault{g.ID, 0, true}, Fault{g.ID, OutputPin, false})
		case netlist.Buf:
			merge(Fault{g.ID, 0, false}, Fault{g.ID, OutputPin, false})
			merge(Fault{g.ID, 0, true}, Fault{g.ID, OutputPin, true})
		}
		// Fanout-free branch ≡ stem: the input pin fault on the only
		// consumer of a line is equivalent to the driver's output fault.
		for pin, f := range g.Fanin {
			if len(c.Gates[f].Fanout) == 1 {
				merge(Fault{g.ID, pin, false}, Fault{f, OutputPin, false})
				merge(Fault{g.ID, pin, true}, Fault{f, OutputPin, true})
			}
		}
	}

	classSize := make([]int32, len(faults)) // by class root
	maxClass := 0
	for i := range faults {
		r := uf.find(i)
		classSize[r]++
		maxClass = max(maxClass, int(classSize[r]))
	}
	var reps []Fault
	for i, f := range faults {
		if r := uf.find(i); classSize[r] > 0 {
			classSize[r] = 0 // the class has its representative
			reps = append(reps, f)
		}
	}
	stats := CollapseStats{
		Total:     len(faults),
		Collapsed: len(reps),
		Classes:   len(reps),
		MaxClass:  maxClass,
	}
	return reps, stats, nil
}

// List returns the collapsed fault list for the circuit: All followed by
// Collapse.
func List(c *netlist.Circuit) ([]Fault, CollapseStats, error) {
	all, err := All(c)
	if err != nil {
		return nil, CollapseStats{}, err
	}
	return Collapse(c, all)
}

type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	if uf.rank[ra] == uf.rank[rb] {
		uf.rank[ra]++
	}
}
