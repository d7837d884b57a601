package atpg

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/fault"
)

// testSetDigest hashes the test set a Result carries: the patterns in
// order, the detection record, and every statistic except GateEvals,
// PodemUntestable and PodemAborted. It is what the reseeding flow
// consumes (ATPGTS and F), and it does not move when a fault PODEM gave
// up on is proven untestable instead.
func testSetDigest(res *Result) string {
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
	st.GateEvals, st.PodemUntestable, st.PodemAborted = 0, 0, 0
	fmt.Fprintf(h, "s %+v\n", st)
	return hex.EncodeToString(h.Sum(nil))
}

// unionDigest hashes the faults the run classified without a test,
// untestable and aborted together, in index order.
func unionDigest(res *Result) string {
	union := slices.Concat(res.Untestable, res.Aborted)
	slices.Sort(union)
	h := sha256.Sum256(fmt.Appendf(nil, "%v", union))
	return hex.EncodeToString(h[:])
}

// classesDigest hashes the untestable and aborted lists in the order the
// run classified them.
func classesDigest(res *Result) string {
	h := sha256.Sum256(fmt.Appendf(nil, "u %v\na %v\n", res.Untestable, res.Aborted))
	return hex.EncodeToString(h[:])
}

// TestGoldenResults pins the ATPG result on bundled circuits at every
// degree of parallelism, as five pins per case. The test-set digest, the
// digest of the untestable and aborted faults taken together, and the
// bound on the aborted count were recorded on the serial PODEM alone, so
// a change to which patterns are generated, in which order, or which
// faults are left without a test fails here; a fault may move from
// aborted to untestable, never the other way or to detected. The classes
// digest pins which of them the prover settles, recorded with the prover
// in front of PODEM. The GateEvals pin is the fault simulator's effort on
// the same run; it moves only when the simulation kernel does less or
// more work for the same answer.
func TestGoldenResults(t *testing.T) {
	cases := []struct {
		circuit    string
		seed       int64
		testSet    string
		union      string
		maxAborted int
		classes    string
		gateEvals  int64
	}{
		{"c432", 1, "7365c96d1fbf3ed1c0007dcef99a90cd109f650674ca373955a8b498e7fec82e", "34432cb790da824a2d600fd04e521042ce7c58a30c4f312d2ac9e6874c88f7ae", 0, "c262ad6915d4b4b5eae466fa26fbdfaccec818c126fc9efcf7dfd478ac34589d", 6915},
		{"s420", 1, "538ebf23a56377978b9f5b36c1e3fa670b04c7fa22100f1f4a81e3a42f8963ef", "791653a54492bb4ca30d849b9cd60d19a541dc4b43a74f37f2144b493075b062", 2, "8f7df6ac9a87a8c53d2a3b7322d1282a176e05ad0815466ed9873c779c587917", 10870},
		{"s820", 1, "1043d925bdfbdffd7561f35dde57c442e3873a9489351eb01c30846d4e08d06a", "93c5735576f90868610d5b70c5627f96d2b12fdc9141a4b86a2347a5295687fb", 0, "2e08b02c152ac2686f7fcebd1ec05df412d8d6d1672776272ab3962a698d27b2", 16275},
		{"s838", 1, "cfb82ca30cda2ef6a232d8b485fa95a47ffdc46c0ec3b4249c8a85f57a18f580", "e6e0ec62dba80309d0008035a40235f24c8cc07fce31620bdf476e78ffdabd07", 25, "6382d8ab735b527f713a56744e8bc23d74b71573360fed70a5c61cd964f7e3d5", 31737},
		{"s1238", 1, "d5c7becefb69cf45681f6179dd44ab07fa2965724a8397c37a162b44a13f8b27", "236c0d4407d42c1a74799dcf6d5eb4db17d0fe8abb20affa703049c68adc9afd", 22, "201d399bcdb4716edd85e2e3469fb9f98f25af1c3743da493d6b71dc7a328a73", 38635},
		{"c432", 2, "f479a3038d4544cc9a45e07830770e7f6b25623548557dc20e3497d4474bc66c", "34432cb790da824a2d600fd04e521042ce7c58a30c4f312d2ac9e6874c88f7ae", 0, "c262ad6915d4b4b5eae466fa26fbdfaccec818c126fc9efcf7dfd478ac34589d", 7006},
		{"s420", 2, "b79350007d15be3ddf344bfa3f82e69d02cf6c1cdd406f8e3e859df4f369546d", "791653a54492bb4ca30d849b9cd60d19a541dc4b43a74f37f2144b493075b062", 2, "8f7df6ac9a87a8c53d2a3b7322d1282a176e05ad0815466ed9873c779c587917", 11149},
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
				if got := testSetDigest(res); got != tc.testSet {
					t.Errorf("test-set digest %s, want %s (%d patterns, stats %+v)",
						got, tc.testSet, len(res.Patterns), res.Stats)
				}
				if got := unionDigest(res); got != tc.union {
					t.Errorf("untestable ∪ aborted digest %s, want %s (%d untestable, %d aborted)",
						got, tc.union, len(res.Untestable), len(res.Aborted))
				}
				if len(res.Aborted) > tc.maxAborted {
					t.Errorf("%d aborted faults, want at most %d", len(res.Aborted), tc.maxAborted)
				}
				if got := classesDigest(res); got != tc.classes {
					t.Errorf("classes digest %s, want %s (%d untestable, %d aborted)",
						got, tc.classes, len(res.Untestable), len(res.Aborted))
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
