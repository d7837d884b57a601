package atpg

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/fault"
)

// answerDigest hashes the answer a Result carries: the patterns in order,
// the detection record, the untestable and aborted lists in the order the
// run classified them, and every statistic except GateEvals. GateEvals
// measures the fault simulator's effort, not the answer, and is pinned on
// its own.
func answerDigest(res *Result) string {
	h := sha256.New()
	for _, p := range res.Patterns {
		fmt.Fprintf(h, "p %s\n", p.Hex())
	}
	for i, d := range res.Detected {
		if d {
			fmt.Fprintf(h, "d %d\n", i)
		}
	}
	st := res.Stats
	st.GateEvals = 0
	fmt.Fprintf(h, "u %v\na %v\ns %+v\n", res.Untestable, res.Aborted, st)
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenResults pins the ATPG result on bundled circuits at every
// degree of parallelism, as two pins per case. The answer digest was
// recorded from the serial, unpacked PODEM that preceded the packed kernel
// and its outcome fan-out, so any change to which patterns are generated,
// in which order, or how a fault is classified fails here. The GateEvals
// pin is the fault simulator's effort on the same run; it moves only when
// the simulation kernel does less or more work for the same answer.
func TestGoldenResults(t *testing.T) {
	cases := []struct {
		circuit   string
		seed      int64
		answer    string
		gateEvals int64
	}{
		{"c432", 1, "0c333506f9021ebdc8aac50d528ebeee10115876a52cad9a7f29d64479eb4dad", 6915},
		{"s420", 1, "6a5862854e928a4d20681f15e9e695e13646316ee0c8b63d01216c5496008cda", 10870},
		{"s820", 1, "7328205b4c5818d1bf3f5cd123600e96c8bb0fa96caeacbf93e007b48007daaa", 16275},
		{"s838", 1, "8662a215b11c1cc754a1532db0b0930a4e67618331bc468861a26058e172fb09", 31737},
		{"s1238", 1, "cb991a369f3403c66e346f271ff3ed2224ac7d92ff673eae8ff8b038e99667e9", 38635},
		{"c432", 2, "bca97fdc2ca0e75e432a718a914f28857409a15b6b5758f36b56c46462c33266", 7006},
		{"s420", 2, "0e97794ed415f86705ff5db5caad804e2470457c103e6d7bf77d21f26be5c027", 11149},
	}
	for _, tc := range cases {
		c, err := bench.ScanView(tc.circuit)
		if err != nil {
			t.Fatal(err)
		}
		faults, _, err := fault.List(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range parallelDegrees {
			t.Run(fmt.Sprintf("%s/seed%d/%s", tc.circuit, tc.seed, d.name), func(t *testing.T) {
				res, err := Run(c, faults, Options{Seed: tc.seed, Parallelism: d.j})
				if err != nil {
					t.Fatal(err)
				}
				if got := answerDigest(res); got != tc.answer {
					t.Errorf("answer digest %s, want %s (%d patterns, stats %+v)",
						got, tc.answer, len(res.Patterns), res.Stats)
				}
				if res.Stats.GateEvals != tc.gateEvals {
					t.Errorf("GateEvals %d, want %d", res.Stats.GateEvals, tc.gateEvals)
				}
			})
		}
	}
}

// parallelDegrees are the Parallelism values the determinism tests and
// benchmarks sweep: serial, two and four workers, and one worker per
// processor (j=0).
var parallelDegrees = []struct {
	name string
	j    int
}{
	{"j1", 1},
	{"j2", 2},
	{"j4", 4},
	{"jmax", 0},
}
