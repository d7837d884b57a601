package cluster

// The worker half of the distributed solve: execute one subtree lease,
// exchanging incumbents with the coordinator while the search runs.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/setcover"
)

// incumbentInterval paces the worker→coordinator incumbent exchange. It
// trades bound freshness against chatter; the exchange only accelerates
// pruning, so the value is a tuning knob, not a correctness one.
const incumbentInterval = 250 * time.Millisecond

// ExecuteSubtree runs one subtree lease: rebuild the problem, recompute
// the (deterministic) plan, solve the leased branch serially, and return
// the result. While the search runs, the worker exchanges incumbents
// with req.Coordinator (when set) at a fixed cadence: its own best going
// out, the cluster-wide best coming back in as the external bound. A
// coordinator that stops answering only stops the exchange — the search
// itself never depends on it.
func ExecuteSubtree(ctx context.Context, req *SubtreeRequest, client *http.Client) (*SubtreeResponse, error) {
	// A lease carrying a traceparent gets its own child trace: the
	// subtree span below parents to the coordinator's lease span, and the
	// recorded spans ship back in the response for the coordinator to
	// fold in. A malformed traceparent degrades to no tracing, never to
	// an error.
	var ltr *obs.Trace
	if tid, pid, ok := obs.ParseTraceparent(req.Traceparent); ok {
		proc := "worker"
		if cur := obs.FromContext(ctx); cur != nil {
			proc = cur.Process() // the daemon's configured process name
		}
		ltr = obs.NewTraceWithParent(tid, pid, proc)
		ctx = obs.ContextWithTrace(ctx, ltr)
	}
	p, weights, err := req.Problem.Decode()
	if err != nil {
		return nil, err
	}
	opts, err := req.Opts.Decode()
	if err != nil {
		return nil, err
	}
	pl, err := p.PlanExact(weights, opts)
	if err != nil {
		return nil, err
	}
	if pl.Terminal() != nil {
		// The coordinator would never lease a terminal plan: the two sides
		// disagree about the problem, which is a protocol error, not a
		// solvable lease.
		return nil, fmt.Errorf("cluster: plan for lease %s/%d is terminal; coordinator and worker disagree", req.SolveID, req.Branch)
	}

	// localBest is this subtree's own best (what the worker reports out);
	// globalBest is the cluster-wide best (what the search prunes with).
	// Both start from the dispatch-time incumbent, at worst the greedy
	// seed cost the plan recomputed.
	seed := int64(pl.Greedy().Cost)
	if req.Incumbent > 0 && int64(req.Incumbent) < seed {
		seed = int64(req.Incumbent)
	}
	var localBest, globalBest atomic.Int64
	localBest.Store(0) // 0 = nothing found by this subtree yet
	globalBest.Store(seed)

	exchCtx, stopExchange := context.WithCancel(ctx)
	defer stopExchange()
	if req.Coordinator != "" {
		go func() {
			tick := time.NewTicker(incumbentInterval)
			defer tick.Stop()
			for {
				select {
				case <-exchCtx.Done():
					return
				case <-tick.C:
					if best := exchangeIncumbent(exchCtx, client, req.Coordinator, req.SolveID, int(localBest.Load())); best > 0 {
						lowerInt64(&globalBest, int64(best))
					}
				}
			}
		}()
	}

	_, ssp := obs.StartSpan(ctx, "subtree")
	res, err := pl.SolveSubtree(req.Branch, setcover.SubtreeOptions{
		Context: ctx,
		Bound:   func() int { return int(globalBest.Load()) },
		OnImprove: func(inc setcover.Incumbent) {
			lowerOrSetInt64(&localBest, int64(inc.Cost))
			lowerInt64(&globalBest, int64(inc.Cost))
		},
	})
	if err != nil {
		ssp.End()
		return nil, err
	}
	ssp.SetInt("branch", int64(req.Branch))
	ssp.SetInt("nodes", res.Nodes)
	ssp.SetInt("found", b2i(res.Found))
	ssp.SetInt("truncated", b2i(res.Truncated))
	if res.Found {
		ssp.SetInt("cost", int64(res.Cost))
	}
	ssp.End()
	stopExchange()
	// One final push so the coordinator hears the last improvement even
	// if the ticker never fired after it (short subtrees).
	if req.Coordinator != "" && localBest.Load() > 0 {
		exchangeIncumbent(ctx, client, req.Coordinator, req.SolveID, int(localBest.Load()))
	}
	return &SubtreeResponse{SolveID: req.SolveID, Result: res, Spans: ltr.Snapshot()}, nil
}

// b2i renders a bool as a span attribute value.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// lowerInt64 CASes v down to x when x is an improvement.
func lowerInt64(v *atomic.Int64, x int64) {
	for {
		cur := v.Load()
		if x >= cur || v.CompareAndSwap(cur, x) {
			return
		}
	}
}

// lowerOrSetInt64 is lowerInt64 treating 0 as "unset".
func lowerOrSetInt64(v *atomic.Int64, x int64) {
	for {
		cur := v.Load()
		if cur != 0 && x >= cur {
			return
		}
		if v.CompareAndSwap(cur, x) {
			return
		}
	}
}

// exchangeIncumbent posts one IncumbentMsg and returns the peer's best
// (0 on any failure — the exchange is best-effort by design).
func exchangeIncumbent(ctx context.Context, client *http.Client, base, solveID string, cost int) int {
	body, err := json.Marshal(IncumbentMsg{SolveID: solveID, Cost: cost})
	if err != nil {
		return 0
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/dist/incumbent", bytes.NewReader(body))
	if err != nil {
		return 0
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0
	}
	var msg IncumbentMsg
	if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil {
		return 0
	}
	return msg.Cost
}
