// Package gatsby reimplements the behaviour of GATSBY, the genetic-
// algorithm-based reseeding tool the paper compares against (Chiusano,
// Prinetto, Wunderlich et al., DATE 2000).
//
// GATSBY computes reseedings incrementally: for each reseed it evolves a
// population of candidate triplets (δ, θ), grading every individual by
// fault simulation against the still-undetected faults, commits the fittest
// triplet, and repeats until the target coverage is reached. Because every
// fitness evaluation is a full fault simulation of a T-cycle test set, the
// approach is simulation-bound; the paper notes it "is not applicable to
// large circuits", which this implementation mirrors with an explicit
// feasibility gate (ErrTooLarge), reproducing the blank GATSBY entries for
// s13207 and s15850 in Table 1.
//
// Each generation is graded as one small Detection Matrix
// (dmatrix.Grade): a row per candidate over the remaining faults, with
// each detection's first pattern. A candidate's fitness is its row's
// size and its length is one past its latest first detection; the
// committed winner's row says which faults it detects, so no triplet is
// simulated twice.
package gatsby

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/bitvec"
	"repro/internal/dmatrix"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/tpg"
)

// ErrTooLarge reports that the circuit exceeds the configured simulation
// budget, as GATSBY's authors reported for the largest ISCAS'89 circuits.
var ErrTooLarge = errors.New("gatsby: circuit too large for simulation-based search")

// Config tunes the genetic search. The zero value selects defaults.
// Cancellation is not a field: Run takes its context as a parameter.
type Config struct {
	// Population is the number of individuals per generation (default 16).
	Population int
	// Generations per reseed (default 10).
	Generations int
	// MutationRate is the per-bit flip probability (default 0.02).
	MutationRate float64
	// Cycles is the evolution length T of every committed triplet
	// (default 2048; GATSBY trades long test sequences for storage).
	Cycles int
	// Seed drives all randomness.
	Seed int64
	// MaxReseeds bounds the solution size (default 512).
	MaxReseeds int
	// StallLimit stops the search after this many consecutive reseeds
	// without a new detection (default 20: the GA grinds hard faults out
	// one reseed at a time, so patience buys coverage).
	StallLimit int
	// MaxFaults is the feasibility gate: fault lists larger than this are
	// rejected with ErrTooLarge (default 25000, which admits every circuit
	// the paper ran GATSBY on and rejects s13207/s15850-class instances).
	MaxFaults int
}

func (c Config) withDefaults() Config {
	if c.Population == 0 {
		c.Population = 16
	}
	if c.Generations == 0 {
		c.Generations = 10
	}
	if c.MutationRate == 0 {
		c.MutationRate = 0.02
	}
	if c.Cycles == 0 {
		c.Cycles = 2048
	}
	if c.MaxReseeds == 0 {
		c.MaxReseeds = 512
	}
	if c.StallLimit == 0 {
		c.StallLimit = 20
	}
	if c.MaxFaults == 0 {
		c.MaxFaults = 25000
	}
	return c
}

// Result is a GATSBY reseeding solution.
type Result struct {
	// Triplets are the committed reseedings with trimmed cycle counts.
	Triplets []tpg.Triplet
	// TestLength is the sum of trimmed triplet lengths.
	TestLength int
	// Detected[i] reports whether faults[i] was detected.
	Detected []bool
	// Coverage is detected / total over the target list.
	Coverage float64
	// TripletSims counts fitness evaluations (full test-set fault
	// simulations) — the effort measure the paper contrasts with the set
	// covering flow: Population + (Generations-1) × (Population-1) graded
	// candidates per reseed attempt, 151 at the defaults.
	TripletSims int
	// GateEvals accumulates fault-simulation work.
	GateEvals int64
	// Stalled reports whether the search ended by stalling rather than by
	// reaching full coverage.
	Stalled bool
}

type individual struct {
	delta   bitvec.Vector
	theta   bitvec.Vector
	row     *bitvec.Set // the remaining faults it detects, by sub-list index
	fitness int         // row.Len()
	length  int         // trimmed length achieving that fitness
}

// Run evolves a reseeding solution for the target fault list on the given
// generator. The generator's width must equal the circuit's input count.
//
// ctx, which must not be nil, cancels the search: each generation's
// grading checks it (dmatrix.Grade). A cancelled run returns the
// context's error — the GA has no meaningful partial solution, matching
// the tool it models.
func Run(ctx context.Context, c *netlist.Circuit, faults []fault.Fault, gen tpg.Generator, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if gen.Width() != len(c.Inputs) {
		return nil, fmt.Errorf("gatsby: generator width %d != circuit inputs %d",
			gen.Width(), len(c.Inputs))
	}
	if len(faults) > cfg.MaxFaults {
		return nil, fmt.Errorf("%w: %d faults > budget %d", ErrTooLarge, len(faults), cfg.MaxFaults)
	}
	if !c.Finalized() || !c.IsCombinational() {
		return nil, fmt.Errorf("gatsby: circuit %q must be finalized and combinational", c.Name)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	width := gen.Width()

	res := &Result{Detected: make([]bool, len(faults))}
	remaining := make([]int, len(faults))
	for i := range faults {
		remaining[i] = i
	}
	var sub []fault.Fault // faults[remaining[i]], rebuilt per reseed

	// grade fault-simulates a generation as one Detection Matrix against
	// the remaining faults.
	grade := func(inds []*individual) error {
		triplets := make([]tpg.Triplet, len(inds))
		for i, ind := range inds {
			triplets[i] = tpg.Triplet{Delta: ind.delta, Theta: ind.theta, Cycles: cfg.Cycles}
		}
		m, err := dmatrix.Grade(ctx, c, sub, triplets, gen, dmatrix.Options{Cycles: cfg.Cycles, Parallelism: 1})
		if err != nil {
			return err
		}
		res.TripletSims += m.TripletSims
		res.GateEvals += m.GateEvals
		for i, ind := range inds {
			ind.row = m.Rows[i]
			ind.fitness = ind.row.Len()
			if ind.fitness > 0 {
				ind.length = m.RowLength(i)
			}
		}
		return nil
	}

	stalls := 0
	for len(remaining) > 0 && len(res.Triplets) < cfg.MaxReseeds && stalls < cfg.StallLimit {
		sub = sub[:0]
		for _, fi := range remaining {
			sub = append(sub, faults[fi])
		}
		// Fresh population per reseed: random seeds plus mutations of the
		// previous winner would bias toward already-detected regions.
		pop := make([]*individual, cfg.Population)
		for i := range pop {
			pop[i] = &individual{delta: bitvec.Random(width, rng), theta: gen.RandomTheta(rng)}
		}
		if err := grade(pop); err != nil {
			return nil, fmt.Errorf("gatsby: %w", err)
		}
		best := fittest(pop)
		for g := 1; g < cfg.Generations; g++ {
			next := []*individual{best} // elitism
			for len(next) < cfg.Population {
				a := tournament(pop, rng)
				b := tournament(pop, rng)
				child := crossover(a, b, rng)
				mutate(child, cfg.MutationRate, rng)
				child.theta = gen.RandomTheta(rng)
				if rng.Intn(2) == 0 {
					child.theta = a.theta.Clone()
				}
				next = append(next, child)
			}
			if err := grade(next[1:]); err != nil {
				return nil, fmt.Errorf("gatsby: %w", err)
			}
			pop = next
			if b := fittest(pop); b.fitness > best.fitness {
				best = b
			}
		}
		if best.fitness == 0 {
			stalls++
			continue
		}
		stalls = 0
		// Commit the winner: its row lists exactly the faults it detects.
		best.row.ForEach(func(si int) { res.Detected[remaining[si]] = true })
		n := 0
		for _, fi := range remaining {
			if !res.Detected[fi] {
				remaining[n] = fi
				n++
			}
		}
		remaining = remaining[:n]
		res.Triplets = append(res.Triplets, tpg.Triplet{
			Delta:  best.delta.Clone(),
			Theta:  best.theta.Clone(),
			Cycles: best.length,
		})
		res.TestLength += best.length
	}

	detected := 0
	for _, d := range res.Detected {
		if d {
			detected++
		}
	}
	if len(faults) > 0 {
		res.Coverage = float64(detected) / float64(len(faults))
	} else {
		res.Coverage = 1
	}
	res.Stalled = len(remaining) > 0
	return res, nil
}

func fittest(pop []*individual) *individual {
	best := pop[0]
	for _, ind := range pop[1:] {
		if ind.fitness > best.fitness {
			best = ind
		}
	}
	return best
}

// tournament picks the better of two random individuals.
func tournament(pop []*individual, rng *rand.Rand) *individual {
	a := pop[rng.Intn(len(pop))]
	b := pop[rng.Intn(len(pop))]
	if a.fitness >= b.fitness {
		return a
	}
	return b
}

// crossover mixes the parents' state seeds word-wise (uniform crossover).
func crossover(a, b *individual, rng *rand.Rand) *individual {
	w := a.delta.Width()
	child := bitvec.New(w)
	for i := 0; i < w; i++ {
		var bit bool
		if rng.Intn(2) == 0 {
			bit = a.delta.Bit(i)
		} else {
			bit = b.delta.Bit(i)
		}
		child.SetBit(i, bit)
	}
	return &individual{delta: child}
}

// mutate flips each seed bit with the given probability.
func mutate(ind *individual, rate float64, rng *rand.Rand) {
	w := ind.delta.Width()
	for i := 0; i < w; i++ {
		if rng.Float64() < rate {
			ind.delta.SetBit(i, !ind.delta.Bit(i))
		}
	}
}
