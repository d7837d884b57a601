// SoC functional BIST scenario: one wide accumulator (e.g. the datapath of
// a MAC unit) serves as the shared test pattern generator for several cores
// of a system on chip. Each core taps a bit-slice of the accumulator output
// bus, as in the paper's motivation: SoC modules are functionally linked by
// bus- and multiplexer-oriented interconnections, so an existing arithmetic
// unit can feed deterministic patterns to its neighbours.
//
// The example wraps the shared accumulator in a per-core view (a Generator
// that embeds core-width seeds into the bus and extracts the core's slice)
// and computes an independent minimal reseeding solution per core.
//
// Because the per-core view is a custom Generator — not one of the named
// kinds a serializable Request can carry — it uses the Engine's
// artifact-level API: Prepare serves each core's ATPG preparation from the
// cache (across program runs of the same process, and across cores
// repeated in a session), and SolveFlow threads the context through matrix
// construction and the covering solve. Matrices are not memoized on this
// path; a custom Generator's name is too weak a cache key.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	reseeding "repro"
	"repro/internal/bitvec"
)

// busTPG adapts a bus-wide accumulator to a core occupying [offset,
// offset+width) of the output bus. Seeds are embedded at the core's offset;
// the remaining bus bits are drawn from the core's seed value mixed across
// the bus so the accumulator's carry chain stays active.
type busTPG struct {
	inner    reseeding.Generator
	busWidth int
	offset   int
	width    int
}

func (b *busTPG) Name() string { return b.inner.Name() + "-slice" }
func (b *busTPG) Width() int   { return b.width }

func (b *busTPG) Load(delta, theta bitvec.Vector) error {
	if delta.Width() != b.width || theta.Width() != b.width {
		return fmt.Errorf("busTPG: seed width %d, want %d", delta.Width(), b.width)
	}
	return b.inner.Load(b.embed(delta), b.embed(theta))
}

// embed places a core-width value at the core's bus offset and replicates
// it across the rest of the bus.
func (b *busTPG) embed(v bitvec.Vector) bitvec.Vector {
	out := bitvec.New(b.busWidth)
	for i := 0; i < b.busWidth; i++ {
		if v.Bit((i + b.busWidth - b.offset) % b.width) {
			out.SetBit(i, true)
		}
	}
	// Exact placement for the core's own slice.
	for i := 0; i < b.width; i++ {
		out.SetBit(b.offset+i, v.Bit(i))
	}
	return out
}

func (b *busTPG) Output() bitvec.Vector {
	bus := b.inner.Output()
	out := bitvec.New(b.width)
	for i := 0; i < b.width; i++ {
		out.SetBit(i, bus.Bit(b.offset+i))
	}
	return out
}

func (b *busTPG) Step() { b.inner.Step() }

func (b *busTPG) RandomTheta(rng *rand.Rand) bitvec.Vector {
	return bitvec.Random(b.width, rng)
}

func main() {
	ctx := context.Background()
	eng := reseeding.NewEngine(reseeding.EngineOptions{})

	// Three cores of the SoC, each a benchmark UUT in full-scan form.
	cores := []string{"s420", "s820", "s953"}

	// Shared TPG: a 128-bit adder accumulator (wider than any core).
	const busWidth = 128
	fmt.Printf("SoC BIST: shared %d-bit adder accumulator feeding %d cores\n\n", busWidth, len(cores))

	offset := 0
	totalROM, totalLength := 0, 0
	for _, name := range cores {
		flow, _, err := eng.Prepare(ctx, reseeding.Request{Circuit: name})
		if err != nil {
			log.Fatal(err)
		}
		inner, err := reseeding.NewTPG("adder", busWidth)
		if err != nil {
			log.Fatal(err)
		}
		w := len(flow.Circuit.Inputs)
		if offset+w > busWidth {
			offset = 0 // wrap: cores share bus lanes across sessions
		}
		gen := &busTPG{inner: inner, busWidth: busWidth, offset: offset, width: w}
		offset += w

		sol, err := eng.SolveFlow(ctx, flow, gen, reseeding.Options{Cycles: 64, Seed: 2})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("core %-6s (%3d scan inputs): %2d reseedings (%d necessary), test %4d cycles, ROM %5d bits\n",
			name, w, sol.NumTriplets(), sol.NumNecessary, sol.TestLength, sol.ROMBits)
		totalROM += sol.ROMBits
		totalLength += sol.TestLength
	}
	fmt.Printf("\nSoC session: %d cycles of functional-BIST test, %d ROM bits total\n",
		totalLength, totalROM)
	fmt.Println("(cores are tested back to back by reprogramming the same accumulator)")
}
