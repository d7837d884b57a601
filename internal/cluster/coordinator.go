package cluster

// The coordinator half of the distributed solve: plan once, lease the
// top-level subtrees to executors — in-process workers and remote peers
// alike, drained by one dispatch loop — and merge.
//
// Fault model: a peer that fails a lease (transport error, 5xx, or a
// result the plan does not accept) gets its branch requeued and is
// retired from the solve; local workers always
// participate, so every branch eventually runs somewhere as long as this
// process lives. Context cancellation stops dispatch and merges whatever
// completed — the anytime answer.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/setcover"
)

// subtreeRequestTimeout bounds one remote lease round trip. Subtrees can
// legitimately run for a while on hard instances, so this is generous;
// the per-solve context still cuts it short on cancellation.
const subtreeRequestTimeout = 10 * time.Minute

// Coordinator fans one exact solve out across replicas. The zero value
// with Board set solves locally only; Peers adds remote lease targets.
type Coordinator struct {
	// Peers are base URLs of replicas accepting POST /v1/dist/subtree.
	// The coordinator's own URL must not be listed (it participates via
	// in-process workers).
	Peers []string
	// Self, when non-empty, is this process's advertised base URL; it is
	// handed to workers as the incumbent-exchange address.
	Self string
	// Board receives incumbent exchanges for in-flight solves. Required.
	Board *Board
	// Client performs peer requests; nil gets a private client.
	Client *http.Client
	// Parallelism caps in-process lease workers (0 = GOMAXPROCS).
	Parallelism int

	seq atomic.Uint64 // distinguishes concurrent solves of equal problems
}

func (c *Coordinator) client() *http.Client {
	if c.Client != nil {
		return c.Client
	}
	return &http.Client{Timeout: subtreeRequestTimeout}
}

// Solve runs one exact solve across the cluster and returns exactly what
// the single-process solver would: bit-identical Rows/Cost/Optimal when
// every subtree completes, the anytime best-so-far (Optimal=false) when
// the context expires or budgets truncate. The error is non-nil only for
// invalid input — peer failures degrade, they don't fail.
func (c *Coordinator) Solve(ctx context.Context, p *setcover.Problem, weights []int, opts setcover.ExactOptions) (setcover.Solution, error) {
	if c.Board == nil {
		return setcover.Solution{}, fmt.Errorf("cluster: coordinator has no board")
	}
	pw := EncodeProblem(p, weights)
	ow := EncodeOptions(opts)
	pl, err := p.PlanExact(weights, opts)
	if err != nil {
		return setcover.Solution{}, err
	}
	if term := pl.Terminal(); term != nil {
		return *term, nil
	}

	solveID := fmt.Sprintf("%s:%s:%d", pw.Fingerprint(), c.Self, c.seq.Add(1))
	closeEntry := c.Board.Open(solveID, pl.Greedy().Cost)
	defer closeEntry()

	n := pl.NumBranches()
	dctx, dsp := obs.StartSpan(ctx, "dist")
	dsp.SetInt("branches", int64(n))
	dsp.SetInt("peers", int64(len(c.Peers)))
	defer dsp.End()
	queue := make(chan int, n)
	for b := 0; b < n; b++ {
		queue <- b
	}
	var pending atomic.Int64
	pending.Store(int64(n))
	done := make(chan struct{})
	finish := func() {
		if pending.Add(-1) == 0 {
			close(done)
		}
	}

	// Local executors are mandatory participants: even with every peer
	// dead they drain the queue, so a completed solve never depends on the
	// network. A lease a peer fails goes back on the queue (whose capacity
	// is n, so the requeue never blocks) and retires that executor.
	var execs []executor
	for i := 0; i < parallel.Degree(c.Parallelism); i++ {
		execs = append(execs, c.local(dctx, pl, solveID))
	}
	for _, peer := range c.Peers {
		execs = append(execs, c.remote(dctx, pl, peer, SubtreeRequest{
			SolveID:     solveID,
			Problem:     pw,
			Opts:        ow,
			Coordinator: c.Self,
		}))
	}
	results := make(chan setcover.SubtreeResult, n)
	var wg sync.WaitGroup
	for _, run := range execs {
		wg.Add(1)
		go func(run executor) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				case <-ctx.Done():
					return
				case b := <-queue:
					res, ok := run(b)
					if !ok {
						queue <- b
						return
					}
					results <- res
					finish()
				}
			}
		}(run)
	}

	select {
	case <-done:
	case <-ctx.Done():
	}
	go func() { wg.Wait(); close(results) }()

	var collected []setcover.SubtreeResult
	for res := range results {
		collected = append(collected, res)
	}
	return pl.Merge(collected), nil
}

// executor runs the lease of one branch. ok=false means the executor is
// unusable for the rest of the solve: the branch is requeued for another.
type executor func(branch int) (res setcover.SubtreeResult, ok bool)

// local runs leases on this process's plan, under a "subtree" span.
func (c *Coordinator) local(ctx context.Context, pl *setcover.ExactPlan, solveID string) executor {
	return func(b int) (setcover.SubtreeResult, bool) {
		_, ssp := obs.StartSpan(ctx, "subtree")
		defer ssp.End()
		ssp.SetInt("branch", int64(b))
		res, err := pl.SolveSubtree(b, setcover.SubtreeOptions{
			Context: ctx,
			Bound:   func() int { return c.Board.Best(solveID) },
			OnImprove: func(inc setcover.Incumbent) {
				c.Board.Exchange(solveID, inc.Cost)
			},
		})
		if err != nil {
			// Only invalid branches error, and the queue holds valid ones;
			// count it as a lost lease.
			return setcover.SubtreeResult{Branch: b, Truncated: true}, true
		}
		ssp.SetInt("nodes", res.Nodes)
		return res, true
	}
}

// remote streams leases to one peer, each under a "lease" span whose
// position travels with the lease: the worker's subtree span parents to
// it, so the spans it ships back (folded in by leaseToPeer) stitch under
// it. A result the plan does not accept counts as a lost lease
// (rejected=1 on the span) and never reaches the incumbent board.
func (c *Coordinator) remote(ctx context.Context, pl *setcover.ExactPlan, peer string, lease SubtreeRequest) executor {
	return func(b int) (setcover.SubtreeResult, bool) {
		lctx, lsp := obs.StartSpan(ctx, "lease")
		defer lsp.End()
		lsp.SetInt("branch", int64(b))
		lsp.SetStr("peer", peer)
		lease.Branch = b
		lease.Incumbent = c.Board.Best(lease.SolveID)
		lease.Traceparent = obs.Traceparent(lctx)
		res, ok := c.leaseToPeer(lctx, peer, lease)
		if ok && !pl.Accepts(res) {
			lsp.SetInt("rejected", 1)
			ok = false
		}
		if !ok {
			lsp.SetInt("requeued", 1)
			return res, false
		}
		if res.Found {
			c.Board.Exchange(lease.SolveID, res.Cost)
		}
		return res, true
	}
}

// leaseToPeer executes one lease remotely. ok=false means the peer is
// unusable for this solve (transport error or a non-retryable status) and
// the branch must be requeued.
func (c *Coordinator) leaseToPeer(ctx context.Context, peer string, lease SubtreeRequest) (setcover.SubtreeResult, bool) {
	body, err := json.Marshal(lease)
	if err != nil {
		return setcover.SubtreeResult{}, false
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+"/v1/dist/subtree", bytes.NewReader(body))
	if err != nil {
		return setcover.SubtreeResult{}, false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client().Do(req)
	if err != nil {
		return setcover.SubtreeResult{}, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return setcover.SubtreeResult{}, false
	}
	var sr SubtreeResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return setcover.SubtreeResult{}, false
	}
	if sr.SolveID != lease.SolveID || sr.Result.Branch != lease.Branch {
		return setcover.SubtreeResult{}, false
	}
	// Fold the worker-side spans into our trace: they share our trace ID
	// (built from the lease's traceparent) and parent to the lease span.
	if tr := obs.FromContext(ctx); tr != nil {
		tr.AddSpans(sr.Spans)
	}
	return sr.Result, true
}
