package atpg

import (
	"context"
	"sync"

	"repro/internal/fault"
	"repro/internal/parallel"
)

// outcome is the classification of one fault: the prover's verdict, then
// a PODEM search unless the prover proved the fault untestable. It
// depends only on the circuit, the faults the random phase left in the
// fault's fanout-free region and the limits — not on which worker
// classified the fault, when, or on the run's random source — so it may be
// computed ahead of the point where Run consumes it.
type outcome struct {
	status     status
	cube       []byte // per primary input v0, v1 or vX; detected only, dropped once consumed
	backtracks int
	proved     bool // untestable by the prover, without a search
	conflicts  int  // the prover's conflicts on this fault
}

// region is one fanout-free region's share of the deterministic phase:
// the faults of the initial target list whose sites lie in it, in list
// order. The first worker to need one of them decides them all on a fresh
// solver (prover.decide); the others wait for it in once and read the
// proofs. So every proof is the same whichever worker needs it first, and
// when.
type region struct {
	root    int32
	faults  []int32
	once    sync.Once
	encoded bool // decide encoded a miter
}

// outcomes computes outcomes for Run's consumer, which takes them one
// fault at a time in undetected-list order. With one worker every fault
// is classified on the consumer's goroutine, in that order. With more,
// workers claim faults along the list in order and classify them ahead of
// the consumer; an outcome computed past the point where a round stops is
// kept and reused if its fault is still undetected in a later round, and
// is wasted if the fault was dropped first.
type outcomes struct {
	ctx      context.Context
	faults   []fault.Fault
	gens     []*podem   // one search state and prover per worker
	done     []*outcome // by fault index, kept until the run ends
	regions  []region
	regionOf []int32 // by fault index: its region, for the faults of the initial list
	proofs   []proof // by fault index, written once its region is decided
	counted  []bool  // by region: a consumed outcome has counted it

	ran        int64 // outcomes computed, wasted ones included
	consumed   int64 // outcomes the consumer used
	backtracks int64 // summed over the consumed outcomes
	proved     int64 // consumed outcomes the prover settled
	conflicts  int64 // the prover's conflicts, summed over the consumed outcomes
	encoded    int64 // region miters encoded, over the consumed outcomes' regions
}

// newOutcomes prepares the classification of the faults of list, the
// deterministic phase's initial target list, grouping them by region.
func newOutcomes(v *view, faults []fault.Fault, list []int, opts Options) *outcomes {
	o := &outcomes{
		ctx:      opts.Context,
		faults:   faults,
		gens:     make([]*podem, parallel.Degree(opts.Parallelism)),
		done:     make([]*outcome, len(faults)),
		regionOf: make([]int32, len(faults)),
		proofs:   make([]proof, len(faults)),
	}
	for w := range o.gens {
		o.gens[w] = newPodem(v, opts.BacktrackLimit)
	}
	byRoot := make([]int32, len(v.Nodes)) // by root line: its region + 1, 0 for none yet
	for _, fi := range list {
		site, _, _ := v.site(faults[fi])
		r := v.Root[site]
		if byRoot[r] == 0 {
			o.regions = append(o.regions, region{root: r})
			byRoot[r] = int32(len(o.regions))
		}
		k := byRoot[r] - 1
		o.regions[k].faults = append(o.regions[k].faults, int32(fi))
		o.regionOf[fi] = k
	}
	o.counted = make([]bool, len(o.regions))
	return o
}

// classify computes fault fi's outcome on gen, deciding its region first
// if no worker has.
func (o *outcomes) classify(gen *podem, fi int) *outcome {
	rg := &o.regions[o.regionOf[fi]]
	rg.once.Do(func() { rg.encoded = gen.pr.decide(rg.root, o.faults, rg.faults, o.proofs) })
	return gen.generate(o.faults[fi], o.proofs[fi])
}

// round hands consume the outcome of each fault of list in order, until
// consume returns false or the list ends. The context is checked before
// every outcome the consumer takes and before every search. round returns
// only after every worker it started has exited.
func (o *outcomes) round(list []int, consume func(fi int, out *outcome) bool) error {
	workers := parallel.Clamp(len(o.gens), len(list))
	if workers == 1 {
		for _, fi := range list {
			if err := o.ctx.Err(); err != nil {
				return err
			}
			if o.done[fi] == nil {
				o.done[fi] = o.classify(o.gens[0], fi)
				o.ran++
			}
			if !o.use(fi, consume) {
				return nil
			}
		}
		return nil
	}

	var (
		mu     sync.Mutex
		cond   = sync.NewCond(&mu)
		next   int   // next list position to claim
		stop   bool  // the consumer has left the round
		failed error // a worker saw the context fail
		wg     sync.WaitGroup
	)
	for _, gen := range o.gens[:workers] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if stop || failed != nil || next == len(list) {
					mu.Unlock()
					return
				}
				fi := list[next]
				next++
				have := o.done[fi] != nil
				mu.Unlock()
				if have {
					continue
				}
				if err := o.ctx.Err(); err != nil {
					mu.Lock()
					failed = err
					cond.Broadcast()
					mu.Unlock()
					return
				}
				out := o.classify(gen, fi)
				mu.Lock()
				o.done[fi] = out
				o.ran++
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}
	defer func() {
		mu.Lock()
		stop = true
		mu.Unlock()
		wg.Wait()
	}()
	for _, fi := range list {
		if err := o.ctx.Err(); err != nil {
			return err
		}
		mu.Lock()
		for o.done[fi] == nil && failed == nil {
			cond.Wait()
		}
		err := failed
		mu.Unlock()
		if err != nil {
			return err
		}
		if !o.use(fi, consume) {
			return nil
		}
	}
	return nil
}

// use hands fault fi's outcome to consume and counts it. Only the
// consumer's goroutine calls it, after the outcome is published.
func (o *outcomes) use(fi int, consume func(fi int, out *outcome) bool) bool {
	out := o.done[fi]
	o.consumed++
	o.backtracks += int64(out.backtracks)
	o.conflicts += int64(out.conflicts)
	if out.proved {
		o.proved++
	}
	if k := o.regionOf[fi]; !o.counted[k] {
		o.counted[k] = true
		if o.regions[k].encoded {
			o.encoded++
		}
	}
	more := consume(fi, out)
	out.cube = nil
	return more
}
