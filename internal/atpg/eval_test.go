package atpg

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/netlist"
)

// eval3 is the reference three-valued function of a gate type, one machine
// at a time: the rules the packed evaluation must reproduce.
func eval3(t netlist.GateType, in []byte) byte {
	switch t {
	case netlist.And, netlist.Nand:
		v := v1
		for _, x := range in {
			if x == v0 {
				v = v0
				break
			}
			if x == vX {
				v = vX
			}
		}
		if t == netlist.Nand {
			return not3(v)
		}
		return v
	case netlist.Or, netlist.Nor:
		v := v0
		for _, x := range in {
			if x == v1 {
				v = v1
				break
			}
			if x == vX {
				v = vX
			}
		}
		if t == netlist.Nor {
			return not3(v)
		}
		return v
	case netlist.Xor, netlist.Xnor:
		v := v0
		for _, x := range in {
			if x == vX {
				return vX
			}
			v ^= x
		}
		if t == netlist.Xnor {
			return not3(v)
		}
		return v
	case netlist.Not:
		return not3(in[0])
	case netlist.Buf:
		return in[0]
	case netlist.Const0:
		return v0
	case netlist.Const1:
		return v1
	default:
		return vX
	}
}

// faultyOf returns the faulty-machine value of a packed byte.
func faultyOf(x byte) byte {
	switch {
	case x&faulty0 != 0:
		return v0
	case x&faulty1 != 0:
		return v1
	}
	return vX
}

// TestPackedEvalMatchesEval3 checks the packed dual-rail evaluation
// against the reference rules exhaustively: every gate type, fanin 1–3
// (none for sources), every good × faulty value pair in {0, 1, X} on every
// pin, with no fault, an output stuck at either value, and each pin stuck
// at either value. The reference itself is spot-checked first.
func TestPackedEvalMatchesEval3(t *testing.T) {
	spot := []struct {
		t    netlist.GateType
		in   []byte
		want byte
	}{
		{netlist.And, []byte{v0, vX}, v0}, // controlling beats X
		{netlist.And, []byte{v1, vX}, vX},
		{netlist.Nand, []byte{v0, vX}, v1},
		{netlist.Or, []byte{v1, vX}, v1},
		{netlist.Or, []byte{v0, vX}, vX},
		{netlist.Nor, []byte{v1, vX}, v0},
		{netlist.Xor, []byte{v1, vX}, vX}, // XOR never resolves X
		{netlist.Xor, []byte{v1, v1}, v0},
		{netlist.Xnor, []byte{v1, v0}, v0},
		{netlist.Not, []byte{vX}, vX},
		{netlist.Not, []byte{v0}, v1},
		{netlist.Buf, []byte{v1}, v1},
	}
	for _, cse := range spot {
		if got := eval3(cse.t, cse.in); got != cse.want {
			t.Errorf("eval3(%v, %v) = %d, want %d", cse.t, cse.in, got, cse.want)
		}
	}

	pins := []int32{0, 1, 2}
	values := []byte{v0, v1, vX}
	checked := 0
	for _, typ := range []netlist.GateType{netlist.Input, netlist.And, netlist.Or, netlist.Nand,
		netlist.Nor, netlist.Xor, netlist.Xnor, netlist.Not, netlist.Buf, netlist.Const0, netlist.Const1} {
		lo, hi := 1, 3
		switch typ {
		case netlist.Not, netlist.Buf:
			hi = 1
		case netlist.Input, netlist.Const0, netlist.Const1:
			lo, hi = 0, 0
		}
		for n := lo; n <= hi; n++ {
			good, faulty := make([]byte, n), make([]byte, n)
			in := make([]byte, n)
			combos := 1
			for range 2 * n {
				combos *= len(values)
			}
			for code := range combos {
				c := code
				for i := range n {
					good[i], faulty[i] = values[c%3], values[c/3%3]
					c /= 9
					in[i] = pack(good[i])&goodRails | pack(faulty[i])&faultyRails
				}
				wantGood := eval3(typ, good)
				check := func(what string, got, wantFaulty byte) {
					t.Helper()
					checked++
					if got&(got>>2)&zeroRails != 0 {
						t.Fatalf("%v%d %s good %v faulty %v: packed %04b sets both rails of a machine", typ, n, what, good, faulty, got)
					}
					if goodOf(got) != wantGood || faultyOf(got) != wantFaulty {
						t.Fatalf("%v%d %s good %v faulty %v: packed gives %d/%d, eval3 %d/%d",
							typ, n, what, good, faulty, goodOf(got), faultyOf(got), wantGood, wantFaulty)
					}
				}
				check("fault-free", evalGate(typ, in, pins[:n]), eval3(typ, faulty))
				for _, stuck := range []byte{v0, v1} {
					rail := pack(stuck) & faultyRails
					check(fmt.Sprintf("output s-a-%d", stuck), evalStuck(typ, in, pins, fault.OutputPin, rail), stuck)
					for pin := range n {
						seen := append([]byte(nil), faulty...)
						seen[pin] = stuck
						check(fmt.Sprintf("pin %d s-a-%d", pin, stuck), evalStuck(typ, in, pins, pin, rail), eval3(typ, seen))
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no combination checked")
	}
}
