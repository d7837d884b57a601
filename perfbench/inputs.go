package main

// Seeded inputs. Every workload derives its inputs from the --seed value
// alone, through the functions below; the program under test only ever
// receives the generated requests and instances.

import (
	"fmt"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/setcover/corpus"
)

// mix derives an independent stream seed from a workload seed and a
// stream index (splitmix64 finalizer), so pass p of seed s never shares a
// random stream with pass p' of seed s'.
func mix(seed int64, stream uint64) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*(stream+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 1)
}

// drawSeed draws a positive solver seed (zero means "default" to the
// engine, so it is never drawn).
func drawSeed(rng *rand.Rand) int64 { return 1 + rng.Int63n(1<<31-1) }

// ---- cold ----

// coldCircuits are the cold workload's circuits: every bundled circuit
// whose cold solve takes under a second on 2 processors.
var coldCircuits = []string{"c432", "c499", "c880", "c1355", "s420", "s641", "s820", "s838", "s953", "s1238"}

// coldCycles are the evolution lengths T cold draws from: sub-word (8, 32)
// and multi-word (128) test sets for fault simulation.
var coldCycles = []int{8, 32, 128}

// tpgKinds are the generator kinds cold draws from.
var tpgKinds = []string{"adder", "subtracter", "multiplier", "lfsr"}

// coldLedgerPasses is the number of leading passes over which cold's
// traced run takes its counters: one full rotation of coldCycles, so every
// circuit is solved once at every T.
const coldLedgerPasses = 3

// coldQualityPasses is the number of leading passes over which cold's
// answer-quality metrics are summed: three rotations, so the sums vary
// little from seed to seed.
const coldQualityPasses = 3 * coldLedgerPasses

// coldReq is one cold request.
type coldReq struct {
	Circuit   string
	Kind      string
	Cycles    int
	ThetaSeed int64
	ATPGSeed  int64
}

func (q coldReq) request() engine.Request {
	return engine.Request{Circuit: q.Circuit, TPG: q.Kind, Cycles: q.Cycles, Seed: q.ThetaSeed, ATPGSeed: q.ATPGSeed}
}

func (q coldReq) String() string {
	return fmt.Sprintf("%s/%s/T=%d/theta=%d/atpg=%d", q.Circuit, q.Kind, q.Cycles, q.ThetaSeed, q.ATPGSeed)
}

// coldPass returns pass p of seed's cold request stream: every circuit
// once, in a seeded order. The seed fixes each circuit's starting T and
// kind, which then rotate pass by pass (a Latin schedule, so any three
// consecutive passes hold every circuit at every T, and per-pass cost does
// not depend on how the draws fell); θ and ATPG seeds are fresh per
// request.
func coldPass(seed int64, p int) []coldReq {
	base := rand.New(rand.NewSource(mix(seed, 0)))
	offT := make([]int, len(coldCircuits))
	offK := make([]int, len(coldCircuits))
	for i := range coldCircuits {
		offT[i] = base.Intn(len(coldCycles))
		offK[i] = base.Intn(len(tpgKinds))
	}
	rng := rand.New(rand.NewSource(mix(seed, uint64(p)+1)))
	out := make([]coldReq, 0, len(coldCircuits))
	for _, i := range rng.Perm(len(coldCircuits)) {
		out = append(out, coldReq{
			Circuit:   coldCircuits[i],
			Kind:      tpgKinds[(offK[i]+p)%len(tpgKinds)],
			Cycles:    coldCycles[(offT[i]+p)%len(coldCycles)],
			ThetaSeed: drawSeed(rng),
			ATPGSeed:  drawSeed(rng),
		})
	}
	return out
}

// coldLedger is the fixed request list of cold's traced run: the first
// coldLedgerPasses passes.
func coldLedger(seed int64) []coldReq {
	var out []coldReq
	for p := 0; p < coldLedgerPasses; p++ {
		out = append(out, coldPass(seed, p)...)
	}
	return out
}

// coldWarmup is cold's untimed set-up request, fixed so set-up time does
// not depend on the seed.
var coldWarmup = coldReq{Circuit: "c432", Kind: "adder", Cycles: 32, ThetaSeed: 1, ATPGSeed: 1}

// ---- serve ----

var (
	serveCircuits   = []string{"c432", "c499", "s420", "s641", "s820", "s953"}
	serveKinds      = []string{"adder", "lfsr"}
	serveObjectives = []string{"triplets", "testlength"}
)

const (
	serveCycles  = 32
	serveClients = 2
)

// serveKey is one of serve's request keys. The two objectives of a
// circuit and kind share one θ seed, hence one Detection Matrix.
type serveKey struct {
	Circuit   string
	Kind      string
	Objective string
	ThetaSeed int64
}

func (k serveKey) request() engine.Request {
	return engine.Request{Circuit: k.Circuit, TPG: k.Kind, Cycles: serveCycles, Seed: k.ThetaSeed, Objective: k.Objective}
}

func (k serveKey) String() string {
	return fmt.Sprintf("%s/%s/%s/theta=%d", k.Circuit, k.Kind, k.Objective, k.ThetaSeed)
}

// serveKeys returns serve's 24 keys in the seeded order the clients cycle
// through. The θ seeds are fixed (1 + the circuit/kind pair's index), not
// drawn: with drawn θ seeds the keys' summed test length and cost moved
// 6-12% from one workload seed to the next, and the warm path's speed
// does not depend on which θ built a matrix.
func serveKeys(seed int64) []serveKey {
	var keys []serveKey
	for ci, c := range serveCircuits {
		for ki, k := range serveKinds {
			theta := int64(1 + ci*len(serveKinds) + ki)
			for _, o := range serveObjectives {
				keys = append(keys, serveKey{Circuit: c, Kind: k, Objective: o, ThetaSeed: theta})
			}
		}
	}
	rng := rand.New(rand.NewSource(mix(seed, 0)))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// ---- cover ----

// defaultCoverSeed selects the committed corpus unchanged.
const defaultCoverSeed = 1

// coverInstance is one instance of the cover workload.
type coverInstance struct {
	spec      corpus.Spec
	inst      *corpus.Instance
	committed bool // the committed corpus file, graded by golden.json
	budget    int64
}

// coverSpecs returns the specs of seed's instance set, in seeded solve
// order. The default seed is the committed corpus. Other seeds regenerate
// the easy, medium and hard tiers with the same shapes from derived
// generator seeds; the open tier stays committed for every seed, because
// its node-budgeted solves dominate a pass and their cost varies by half
// from one generated instance to the next.
func coverSpecs(seed int64) (specs []corpus.Spec, committed []bool) {
	for i, s := range corpus.Specs() {
		keep := seed == defaultCoverSeed || s.Tier == corpus.TierOpen
		if !keep {
			s.Params.Seed = mix(seed, uint64(i)+1)
		}
		specs = append(specs, s)
		committed = append(committed, keep)
	}
	rng := rand.New(rand.NewSource(mix(seed, 0)))
	rng.Shuffle(len(specs), func(i, j int) {
		specs[i], specs[j] = specs[j], specs[i]
		committed[i], committed[j] = committed[j], committed[i]
	})
	return specs, committed
}

// loadCover materializes the instance set: committed instances are parsed
// from the embedded corpus files, regenerated ones generated.
func loadCover(seed int64) ([]coverInstance, error) {
	specs, committed := coverSpecs(seed)
	out := make([]coverInstance, len(specs))
	for i, s := range specs {
		var (
			inst *corpus.Instance
			err  error
		)
		if committed[i] {
			inst, err = corpus.Load(s.Name)
		} else {
			inst, err = corpus.Generate(s.Name, s.Params)
		}
		if err != nil {
			return nil, err
		}
		var budget int64
		if s.Tier == corpus.TierOpen {
			budget = corpus.DefaultOpenNodeBudget
		}
		out[i] = coverInstance{spec: s, inst: inst, committed: committed[i], budget: budget}
	}
	return out, nil
}
