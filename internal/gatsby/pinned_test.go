package gatsby

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/atpg"
	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/tpg"
)

// resultDigest hashes what a Result answers: the committed triplets, the
// detected faults, the test length, the coverage and whether the search
// stalled. TripletSims and GateEvals measure effort, not the answer, and
// are left out.
func resultDigest(r *Result) string {
	h := sha256.New()
	for _, t := range r.Triplets {
		fmt.Fprintf(h, "t %s %s %d\n", t.Delta.Hex(), t.Theta.Hex(), t.Cycles)
	}
	for i, d := range r.Detected {
		if d {
			fmt.Fprintf(h, "d %d\n", i)
		}
	}
	fmt.Fprintf(h, "l %d c %v s %t\n", r.TestLength, r.Coverage, r.Stalled)
	return hex.EncodeToString(h.Sum(nil))
}

// pinnedResults are the digests of every run TestResultsPinned makes,
// recorded from the search that graded each candidate with its own fault
// simulation.
var pinnedResults = map[string]string{
	"s420/adder/T7":        "695d5995c53972df5a8aa870765107fc38444189ad8bee24f276eaab8d5f3bfe",
	"s420/adder/T64":       "9322e52ecc1ed4fb3183fda201bbae469eff3a82805b56abbd0dd905dfabe7bf",
	"s420/adder/T300":      "8bb6ac0d08413114907cee0e6465f83e9473d349d083a4a06e9543b585c3b7ac",
	"s420/multiplier/T7":   "9e3acd39086fa4c38c6d9c8aa3076c558d6e39b6dd116bc179b1b5057a5183bd",
	"s420/multiplier/T64":  "3d9f910feb3efb9e34515812f5cfcc3da71a6c5441870f2b45d7e8c513e778eb",
	"s420/multiplier/T300": "2d9dfdde52addbca897ba27c44b7239b98884130fdbc6e9b085e32b574b3fbea",
	"c499/adder/T7":        "a80c54bf830f27b96059fb93e4ae063f799c57d2f40ae01692a993fcb34fafb8",
	"c499/adder/T64":       "88132e6c31b81dd6b062f80477acd004f43f26134380c19dcbb0950fa42827e7",
	"c499/adder/T300":      "4c8e4caa629e3d47f6a54d1d1747c438b2dfc8aed2f93c63ec2576f323dc1e20",
	"c499/multiplier/T7":   "d817d2c926c71de630c55d10fd3dde17a4cdf5fd6c5cf1c6daa0d6773bca8b57",
	"c499/multiplier/T64":  "136d2df88e63bc7c2e70e08507651709e274c48eeb7dca9af3802854fb9d7ee4",
	"c499/multiplier/T300": "6d8af4db2a6d61a4fcbaa5619ecf2d99ab959c5c9db0bc69ff9a31eefa30cee8",
}

// TestResultsPinned pins GATSBY's answers on two bundled circuits for two
// generators and three evolution lengths: T = 7 puts nine triplets in a
// 64-pattern lane, T = 64 one, and T = 300 spans five 64-pattern segments.
func TestResultsPinned(t *testing.T) {
	for _, name := range []string{"s420", "c499"} {
		c, err := bench.ScanView(name)
		if err != nil {
			t.Fatal(err)
		}
		all, _, err := fault.List(c)
		if err != nil {
			t.Fatal(err)
		}
		ares, err := atpg.Run(c, all, atpg.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var faults []fault.Fault
		for _, fi := range ares.DetectedFaults() {
			faults = append(faults, all[fi])
		}
		for _, kind := range []string{"adder", "multiplier"} {
			gen, err := tpg.ByName(kind, len(c.Inputs))
			if err != nil {
				t.Fatal(err)
			}
			for _, cycles := range []int{7, 64, 300} {
				key := fmt.Sprintf("%s/%s/T%d", name, kind, cycles)
				t.Run(key, func(t *testing.T) {
					res, err := Run(c, faults, gen, Config{Seed: 3, Generations: 4, StallLimit: 4, Cycles: cycles})
					if err != nil {
						t.Fatal(err)
					}
					if got := resultDigest(res); got != pinnedResults[key] {
						t.Errorf("digest %s, want %s (%d triplets, length %d, coverage %v)",
							got, pinnedResults[key], len(res.Triplets), res.TestLength, res.Coverage)
					}
				})
			}
		}
	}
}
