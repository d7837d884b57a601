package store

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/netlist"
	"repro/internal/tpg"
)

// Store records are untrusted bytes: PUT /v1/store accepts any record
// whose embedded key hashes to its address, and a peer's Remote store
// serves whatever it holds. A malformed record must decode to an error —
// never a panic, an allocation sized by a claimed count, or a flow whose
// fault classification contradicts itself.

// matrixCrash claims a 2^40-bit seed width: before seeds and rows were
// length-checked, decoding it allocated 128 GiB.
const matrixCrash = `{"format":1,"key":"k","num_faults":1,"width":1099511627776,"triplets":[{"delta":"1","theta":"1","cycles":1}],"rows":["1"]}`

// c17 is the ISCAS'85 c17 netlist: six NAND gates, small enough that the
// fuzzers' seed records stay a few hundred bytes.
const c17 = `
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
`

// smallFlow prepares c17.
func smallFlow(t testing.TB) *core.Flow {
	t.Helper()
	c, err := netlist.ParseString("c17", c17)
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.Prepare(c, atpg.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// sampleMatrix builds a small genuine Detection Matrix record under key.
func sampleMatrix(t testing.TB, f *core.Flow, key string) []byte {
	t.Helper()
	gen, err := tpg.ByName("adder", len(f.Circuit.Inputs))
	if err != nil {
		t.Fatal(err)
	}
	m, err := f.BuildMatrix(gen, core.Options{Cycles: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeMatrix(key, m)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// editRecord decodes a JSON record, lets edit change its fields and
// re-encodes it.
func editRecord(t testing.TB, data []byte, edit func(map[string]any)) []byte {
	t.Helper()
	var rec map[string]any
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	edit(rec)
	out, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestDecodeMatrixRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"huge width":            matrixCrash,
		"negative width":        strings.Replace(matrixCrash, "1099511627776", "-1", 1),
		"huge fault count":      `{"format":1,"key":"k","num_faults":1099511627776,"width":4,"triplets":[{"delta":"1","theta":"1","cycles":1}],"rows":["1"]}`,
		"negative fault count":  `{"format":1,"key":"k","num_faults":-1,"width":4,"triplets":[{"delta":"1","theta":"1","cycles":1}],"rows":["1"]}`,
		"faults without rows":   `{"format":1,"key":"k","num_faults":1099511627776,"width":4,"triplets":[],"rows":[]}`,
		"short seed":            `{"format":1,"key":"k","num_faults":4,"width":8,"triplets":[{"delta":"1","theta":"01","cycles":1}],"rows":["1"]}`,
		"long seed":             `{"format":1,"key":"k","num_faults":4,"width":4,"triplets":[{"delta":"01","theta":"1","cycles":1}],"rows":["1"]}`,
		"short row":             `{"format":1,"key":"k","num_faults":8,"width":4,"triplets":[{"delta":"1","theta":"1","cycles":1}],"rows":["1"]}`,
		"long row":              `{"format":1,"key":"k","num_faults":4,"width":4,"triplets":[{"delta":"1","theta":"1","cycles":1}],"rows":["01"]}`,
		"bit past the width":    `{"format":1,"key":"k","num_faults":2,"width":4,"triplets":[{"delta":"1","theta":"1","cycles":1}],"rows":["4"]}`,
		"bad hex":               `{"format":1,"key":"k","num_faults":4,"width":4,"triplets":[{"delta":"g","theta":"1","cycles":1}],"rows":["1"]}`,
		"rows without triplets": `{"format":1,"key":"k","num_faults":4,"width":4,"triplets":[],"rows":["1"]}`,
		"short first detection": `{"format":1,"key":"k","num_faults":4,"width":4,"triplets":[{"delta":"1","theta":"1","cycles":1}],"rows":["1"],"first_detection":"AAAA"}`,
	}
	for name, rec := range cases {
		if m, err := DecodeMatrix("k", []byte(rec)); err == nil {
			t.Errorf("%s: decoded to %+v, want an error", name, m)
		}
	}
}

func TestDecodeFlowRejectsMalformed(t *testing.T) {
	f := prepared(t)
	good, err := EncodeFlow("k", f)
	if err != nil {
		t.Fatal(err)
	}
	detected := f.ATPG.DetectedFaults()
	if len(detected) == 0 || len(f.ATPG.Untestable)+len(f.ATPG.Aborted) == 0 {
		t.Fatalf("sample flow lacks a fault class: %d detected, %d untestable, %d aborted",
			len(detected), len(f.ATPG.Untestable), len(f.ATPG.Aborted))
	}
	// spare is a fault the record classifies as untestable or aborted;
	// each case lists it as given and drops it from both lists otherwise.
	spare := append(slices.Clone(f.ATPG.Untestable), f.ATPG.Aborted...)[0]
	classify := func(untestable, aborted []int) []byte {
		return editRecord(t, good, func(rec map[string]any) {
			rec["untestable"], rec["aborted"] = untestable, aborted
		})
	}
	cases := map[string][]byte{
		// The poisoned record this check was written for: it decoded and
		// reported testable coverage 0.9261 instead of 1.0.
		"untestable poison":       classify([]int{1000000000, -5, detected[0], detected[0]}, nil),
		"untestable out of range": classify([]int{len(f.AllFaults)}, nil),
		"negative aborted":        classify(nil, []int{-1}),
		"duplicate untestable":    classify([]int{spare, spare}, nil),
		"duplicate aborted":       classify(nil, []int{spare, spare}),
		"untestable and aborted":  classify([]int{spare}, []int{spare}),
		"untestable detected":     classify([]int{detected[0]}, nil),
		"aborted detected":        classify(nil, []int{detected[len(detected)-1]}),
		"duplicate detected": editRecord(t, good, func(rec map[string]any) {
			rec["detected"] = append([]int{detected[0]}, detected...)
		}),
	}
	for name, rec := range cases {
		if fl, err := DecodeFlow("k", rec); err == nil {
			t.Errorf("%s: decoded (testable coverage %.4f), want an error", name, fl.ATPG.TestableCoverage())
		}
	}
	for name, rec := range map[string][]byte{
		"genuine":      good,
		"spare listed": classify([]int{spare}, nil),
		"unclassified": classify(nil, nil),
	} {
		if _, err := DecodeFlow("k", rec); err != nil {
			t.Errorf("%s record rejected: %v", name, err)
		}
	}
}

// A poisoned record in the store costs one rebuild: the Engine counts the
// read error, recomputes, and the rebuild overwrites the record.
func TestEngineRecomputesOverPoisonedRecords(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	req := engine.Request{Circuit: "s420", TPG: "adder", Cycles: 48, Seed: 2, Parallelism: 1}
	if _, err := engine.New(engine.Options{Store: s}).Solve(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	for kind, poison := range map[Kind]func(rec map[string]any){
		KindMatrices: func(rec map[string]any) { rec["width"] = 1 << 40 },
		KindFlows: func(rec map[string]any) {
			rec["untestable"] = []any{1000000000, -5, rec["detected"].([]any)[0]}
		},
	} {
		entries, err := os.ReadDir(dir + "/" + string(kind))
		if err != nil || len(entries) != 1 {
			t.Fatalf("%s: %d records (%v), want 1", kind, len(entries), err)
		}
		path := dir + "/" + string(kind) + "/" + entries[0].Name()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, editRecord(t, data, poison), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	eng := engine.New(engine.Options{Store: s})
	if _, err := eng.Solve(context.Background(), req); err != nil {
		t.Fatalf("poisoned store failed the solve: %v", err)
	}
	if st := eng.Stats(); st.StoreErrors != 2 || st.PrepareBuilds != 1 || st.MatrixBuilds != 1 {
		t.Errorf("poisoned records should be counted and rebuilt: %+v", st)
	}
	again := engine.New(engine.Options{Store: s})
	if _, err := again.Solve(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if st := again.Stats(); st.StoreErrors != 0 || st.PrepareBuilds != 0 || st.MatrixBuilds != 0 {
		t.Errorf("the rebuild did not overwrite the poisoned records: %+v", st)
	}
}

// FuzzDecodeMatrix: every input either fails to decode or decodes to a
// matrix that survives Encode → Decode unchanged.
func FuzzDecodeMatrix(f *testing.F) {
	f.Add(sampleMatrix(f, smallFlow(f), "k"))
	f.Add([]byte(matrixCrash))
	f.Add([]byte(strings.Replace(matrixCrash, "1099511627776", "-1", 1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMatrix("k", data)
		if err != nil || m == nil {
			return
		}
		enc, err := EncodeMatrix("k", m)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeMatrix("k", enc)
		if err != nil {
			t.Fatalf("re-encoded matrix does not decode: %v", err)
		}
		if !reflect.DeepEqual(m, back) {
			t.Fatalf("matrix changed across a re-encode:\n%+v\n%+v", m, back)
		}
	})
}

// FuzzDecodeFlow: every input either fails to decode or decodes to a flow
// that survives Encode → Decode unchanged. The circuit is re-parsed on
// each decode, which may renumber its gates and reorder its .bench text,
// so flows are compared through flowSignature.
func FuzzDecodeFlow(f *testing.F) {
	good, err := EncodeFlow("k", smallFlow(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(editRecord(f, good, func(rec map[string]any) {
		rec["untestable"] = []any{1000000000, -5, rec["detected"].([]any)[0], rec["detected"].([]any)[0]}
	}))
	f.Add([]byte(`{"format":1,"key":"k","name":"t","bench":"INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n","width":1,` +
		`"faults":[{"g":"z","p":-1,"s":false},{"g":"z","p":-1,"s":true}],"detected":[0],"untestable":[1],"patterns":["1"]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		fl, err := DecodeFlow("k", data)
		if err != nil || fl == nil {
			return
		}
		enc, err := EncodeFlow("k", fl)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeFlow("k", enc)
		if err != nil {
			t.Fatalf("re-encoded flow does not decode: %v", err)
		}
		if a, b := flowSignature(fl), flowSignature(back); a != b {
			t.Fatalf("flow changed across a re-encode:\n%s\n%s", a, b)
		}
	})
}

// flowSignature renders a flow independently of gate numbering: the
// circuit's ports in order and its gates by name, the fault list by gate
// name, and the ATPG result.
func flowSignature(f *core.Flow) string {
	var b strings.Builder
	c := f.Circuit
	name := func(id int) string { return c.Gates[id].Name }
	fmt.Fprintf(&b, "circuit %s\n", c.Name)
	for _, id := range c.Inputs {
		fmt.Fprintf(&b, "in %s\n", name(id))
	}
	for _, id := range c.Outputs {
		fmt.Fprintf(&b, "out %s\n", name(id))
	}
	var gates []string
	for _, g := range c.Gates {
		line := fmt.Sprintf("gate %s %v", g.Name, g.Type)
		for _, in := range g.Fanin {
			line += " " + name(in)
		}
		gates = append(gates, line)
	}
	slices.Sort(gates)
	b.WriteString(strings.Join(gates, "\n"))
	for _, fa := range f.AllFaults {
		fmt.Fprintf(&b, "\nfault %s %d %v", name(fa.Gate), fa.Pin, fa.StuckAt1)
	}
	for _, p := range f.Patterns {
		fmt.Fprintf(&b, "\npattern %s", p.Hex())
	}
	for _, fa := range f.TargetFaults {
		fmt.Fprintf(&b, "\ntarget %s %d %v", name(fa.Gate), fa.Pin, fa.StuckAt1)
	}
	r := f.ATPG
	fmt.Fprintf(&b, "\ndetected %v\nuntestable %v\naborted %v\nstats %+v",
		r.DetectedFaults(), r.Untestable, r.Aborted, r.Stats)
	return b.String()
}
