package atpg

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/fault"
)

// resultDigest hashes everything a Result carries: the patterns in order,
// the detection record, the untestable and aborted lists in the order the
// run classified them, and the statistics.
func resultDigest(res *Result) string {
	h := sha256.New()
	for _, p := range res.Patterns {
		fmt.Fprintf(h, "p %s\n", p.Hex())
	}
	for i, d := range res.Detected {
		if d {
			fmt.Fprintf(h, "d %d\n", i)
		}
	}
	fmt.Fprintf(h, "u %v\na %v\ns %+v\n", res.Untestable, res.Aborted, res.Stats)
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenResults pins the complete ATPG result on bundled circuits at
// every degree of parallelism. The digests were recorded from the serial,
// unpacked PODEM that preceded the packed kernel and its outcome fan-out,
// so any change to which patterns are generated, in which order, or how a
// fault is classified fails here.
func TestGoldenResults(t *testing.T) {
	cases := []struct {
		circuit string
		seed    int64
		digest  string
	}{
		{"c432", 1, "56d9a7194816de3cc03dfdf6df79f402c04b033e551a55bf0047cd37fb7b316d"},
		{"s420", 1, "a8a79ded6c8e2dfad4e4ec3a93424ce9ef0a6d297fff9c5ea3bd170954d97b89"},
		{"s820", 1, "16ec4a22b7e056a670dec1697f60accfa299a861b592c57e1fdd3105df7624fb"},
		{"s838", 1, "66dcdd5891764c82bcf4c03b5a4be08d4232fd234cc27cbb87fd2b35f139dc7a"},
		{"s1238", 1, "30937fb399c2e6fed289e5a143afdebfa29c409dfea774a7b864f07ef1f65160"},
		{"c432", 2, "d2e5b8287f661f25ec9c45ebc9a98deb0591ae4818be8912c16d62b77b1bc813"},
		{"s420", 2, "b8dbe44ddb33e92fc7ffff569dd1fa8f8a97b1231aa2bf4e029b0be9f927dad8"},
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
				if got := resultDigest(res); got != tc.digest {
					t.Errorf("result digest %s, want %s (%d patterns, stats %+v)",
						got, tc.digest, len(res.Patterns), res.Stats)
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
