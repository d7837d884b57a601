// Package logicsim implements a 64-way bit-parallel logic simulator for
// gate-level circuits with flip-flops.
//
// Each gate value is a 64-bit word; bit k of every word belongs to stream k.
// One pass over the levelized netlist therefore advances up to 64
// independent input/state streams by one clock cycle. Combinational good-
// and faulty-machine simulation for the reseeding flow runs in package
// fsim, on the flat netlist.View.
package logicsim

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/netlist"
)

// SeqSimulator evaluates sequential circuits cycle by cycle: each Step
// computes the combinational logic from the current primary inputs and
// flip-flop states, samples the primary outputs, and then clocks every DFF
// (Q ← D). It is 64-way bit-parallel, simulating the same circuit under
// up to 64 independent input/state streams at once; the
// single-stream helpers (SetState/StepOne) cover the common verification
// use.
//
// It is used to validate the gate-level TPG implementations produced by
// package tpggen against their behavioral models, and more generally to run
// any .bench design with flip-flops.
type SeqSimulator struct {
	c      *netlist.Circuit
	order  []int
	values []uint64
	state  []uint64 // per-DFF, in circuit DFF order
	outBuf []uint64
}

// NewSequential returns a sequential simulator. The circuit must be
// finalized; it may also be purely combinational (Step then never latches
// anything).
func NewSequential(c *netlist.Circuit) (*SeqSimulator, error) {
	if !c.Finalized() {
		return nil, fmt.Errorf("logicsim: circuit %q not finalized", c.Name)
	}
	return &SeqSimulator{
		c:      c,
		order:  c.TopoOrder(),
		values: make([]uint64, c.NumGates()),
		state:  make([]uint64, len(c.DFFs)),
		outBuf: make([]uint64, len(c.Outputs)),
	}, nil
}

// Circuit returns the simulated circuit.
func (s *SeqSimulator) Circuit() *netlist.Circuit { return s.c }

// Reset clears every flip-flop to 0 in all streams.
func (s *SeqSimulator) Reset() {
	for i := range s.state {
		s.state[i] = 0
	}
}

// LoadState sets the flip-flop states of all 64 streams; words[i] carries
// the 64 per-stream bits of the i-th DFF (in circuit DFF order).
func (s *SeqSimulator) LoadState(words []uint64) error {
	if len(words) != len(s.state) {
		return fmt.Errorf("logicsim: %d state words, circuit has %d DFFs", len(words), len(s.state))
	}
	copy(s.state, words)
	return nil
}

// SetState loads the same single-stream state into stream 0 (bit i of v is
// DFF i) and clears all other streams.
func (s *SeqSimulator) SetState(v bitvec.Vector) error {
	if v.Width() != len(s.state) {
		return fmt.Errorf("logicsim: state width %d, circuit has %d DFFs", v.Width(), len(s.state))
	}
	for i := range s.state {
		if v.Bit(i) {
			s.state[i] = 1
		} else {
			s.state[i] = 0
		}
	}
	return nil
}

// State returns the stream-0 flip-flop values as a vector (bit i = DFF i).
func (s *SeqSimulator) State() bitvec.Vector {
	out := bitvec.New(len(s.state))
	for i, w := range s.state {
		if w&1 == 1 {
			out.SetBit(i, true)
		}
	}
	return out
}

// Step evaluates one clock cycle for all 64 streams: combinational settle,
// output sampling, then the DFF update Q ← D. The returned slice (one word
// per primary output) is reused across calls.
func (s *SeqSimulator) Step(inputWords []uint64) ([]uint64, error) {
	if len(inputWords) != len(s.c.Inputs) {
		return nil, fmt.Errorf("logicsim: got %d input words, circuit has %d inputs",
			len(inputWords), len(s.c.Inputs))
	}
	for i, id := range s.c.Inputs {
		s.values[id] = inputWords[i]
	}
	for i, id := range s.c.DFFs {
		s.values[id] = s.state[i]
	}
	var faninBuf [16]uint64
	for _, id := range s.order {
		g := s.c.Gates[id]
		if g.Type == netlist.Input || g.Type == netlist.DFF {
			continue
		}
		in := faninBuf[:0]
		for _, f := range g.Fanin {
			in = append(in, s.values[f])
		}
		s.values[id] = netlist.Eval(g.Type, in)
	}
	for i, id := range s.c.Outputs {
		s.outBuf[i] = s.values[id]
	}
	// Clock edge: capture each DFF's data input.
	for i, id := range s.c.DFFs {
		s.state[i] = s.values[s.c.Gates[id].Fanin[0]]
	}
	return s.outBuf, nil
}

// PackPatterns packs up to 64 patterns into per-input words for Step: the
// returned slice has one word per circuit input, with bit k holding pattern
// k's value for that input. Pattern bit i corresponds to circuit input i
// (pattern width must equal the circuit's input count).
func PackPatterns(c *netlist.Circuit, patterns []bitvec.Vector) ([]uint64, error) {
	if len(patterns) > 64 {
		return nil, fmt.Errorf("logicsim: block of %d patterns exceeds 64", len(patterns))
	}
	n := len(c.Inputs)
	words := make([]uint64, n)
	for k, p := range patterns {
		if p.Width() != n {
			return nil, fmt.Errorf("logicsim: pattern %d has width %d, circuit has %d inputs",
				k, p.Width(), n)
		}
		for i := 0; i < n; i++ {
			if p.Bit(i) {
				words[i] |= 1 << uint(k)
			}
		}
	}
	return words, nil
}

// StepOne runs one cycle of stream 0 with a single input pattern (bit i =
// input i) and returns the primary outputs as a vector.
func (s *SeqSimulator) StepOne(inputs bitvec.Vector) (bitvec.Vector, error) {
	words, err := PackPatterns(s.c, []bitvec.Vector{inputs})
	if err != nil {
		return bitvec.Vector{}, err
	}
	outWords, err := s.Step(words)
	if err != nil {
		return bitvec.Vector{}, err
	}
	out := bitvec.New(len(s.c.Outputs))
	for i, w := range outWords {
		if w&1 == 1 {
			out.SetBit(i, true)
		}
	}
	return out, nil
}
