package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZero(t *testing.T) {
	for _, w := range []int{0, 1, 7, 63, 64, 65, 127, 128, 200} {
		v := New(w)
		if v.Width() != w {
			t.Errorf("New(%d).Width() = %d", w, v.Width())
		}
		if !v.IsZero() {
			t.Errorf("New(%d) not zero: %s", w, v)
		}
		if v.OnesCount() != 0 {
			t.Errorf("New(%d).OnesCount() = %d", w, v.OnesCount())
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestFromUint64Masks(t *testing.T) {
	v := FromUint64(4, 0xff)
	if got := v.Uint64(); got != 0xf {
		t.Errorf("FromUint64(4, 0xff) = %#x, want 0xf", got)
	}
	v = FromUint64(64, 0xdeadbeefcafef00d)
	if got := v.Uint64(); got != 0xdeadbeefcafef00d {
		t.Errorf("FromUint64(64, x) = %#x", got)
	}
}

func TestFromLimbs(t *testing.T) {
	v := FromLimbs(100, []uint64{1, ^uint64(0)})
	if !v.Bit(0) {
		t.Error("bit 0 should be set")
	}
	if v.Bit(1) {
		t.Error("bit 1 should be clear")
	}
	for i := 64; i < 100; i++ {
		if !v.Bit(i) {
			t.Errorf("bit %d should be set", i)
		}
	}
	// Bits above width 100 must have been masked off.
	limbs := v.Limbs()
	if limbs[1] != (uint64(1)<<36)-1 {
		t.Errorf("top limb = %#x, want lower 36 bits only", limbs[1])
	}
}

func TestSetBitGetBit(t *testing.T) {
	v := New(130)
	idx := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, i := range idx {
		v.SetBit(i, true)
	}
	for _, i := range idx {
		if !v.Bit(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if v.OnesCount() != len(idx) {
		t.Errorf("OnesCount = %d, want %d", v.OnesCount(), len(idx))
	}
	for _, i := range idx {
		v.SetBit(i, false)
	}
	if !v.IsZero() {
		t.Errorf("vector not zero after clearing: %s", v.Hex())
	}
}

// TestLimbMatchesBit checks that Limb(j) holds bits 64j to 64j+63 of a
// vector wider than two limbs, and nothing past its width.
func TestLimbMatchesBit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	v := Random(130, rng)
	for i := 0; i < 3*wordBits; i++ {
		got := v.Limb(i/wordBits)>>(i%wordBits)&1 == 1
		if want := i < v.Width() && v.Bit(i); got != want {
			t.Errorf("bit %d: Limb has %v, Bit %v", i, got, want)
		}
	}
}

func TestBitOutOfRangePanics(t *testing.T) {
	v := New(8)
	for _, i := range []int{-1, 8, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Bit(%d) did not panic", i)
				}
			}()
			v.Bit(i)
		}()
	}
}

func TestFromStringRoundTrip(t *testing.T) {
	cases := []string{"0", "1", "1010", "11110000", "1" + zeros(70) + "1"}
	for _, s := range cases {
		v, err := FromString(s)
		if err != nil {
			t.Fatalf("FromString(%q): %v", s, err)
		}
		if got := v.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func zeros(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '0'
	}
	return string(b)
}

func TestFromStringErrors(t *testing.T) {
	for _, s := range []string{"", "10x1", "2"} {
		if _, err := FromString(s); err == nil {
			t.Errorf("FromString(%q) succeeded, want error", s)
		}
	}
}

func TestStringMSBFirst(t *testing.T) {
	v := New(4)
	v.SetBit(3, true) // MSB
	if got := v.String(); got != "1000" {
		t.Errorf("String() = %q, want 1000", got)
	}
}

func TestHex(t *testing.T) {
	v := FromUint64(16, 0xbeef)
	if got := v.Hex(); got != "beef" {
		t.Errorf("Hex() = %q, want beef", got)
	}
	v = FromUint64(9, 0x1ff)
	if got := v.Hex(); got != "1ff" {
		t.Errorf("Hex() = %q, want 1ff", got)
	}
}

func TestAddSmall(t *testing.T) {
	cases := []struct {
		w          int
		a, b, want uint64
	}{
		{8, 200, 100, 44}, // wraps mod 256
		{8, 0, 0, 0},
		{8, 255, 1, 0},
		{16, 0xffff, 2, 1},
		{64, ^uint64(0), 1, 0},
	}
	for _, c := range cases {
		got := Add(FromUint64(c.w, c.a), FromUint64(c.w, c.b))
		if got.Uint64() != c.want {
			t.Errorf("Add(%d-bit, %d, %d) = %d, want %d", c.w, c.a, c.b, got.Uint64(), c.want)
		}
	}
}

func TestAddCarryAcrossLimbs(t *testing.T) {
	a := FromLimbs(128, []uint64{^uint64(0), 0})
	b := FromUint64(128, 1)
	got := Add(a, b)
	want := FromLimbs(128, []uint64{0, 1})
	if !got.Equal(want) {
		t.Errorf("carry not propagated: got %s", got.Hex())
	}
}

func TestSubBorrowAcrossLimbs(t *testing.T) {
	a := FromLimbs(128, []uint64{0, 1})
	b := FromUint64(128, 1)
	got := Sub(a, b)
	want := FromLimbs(128, []uint64{^uint64(0), 0})
	if !got.Equal(want) {
		t.Errorf("borrow not propagated: got %s", got.Hex())
	}
}

func TestMulSmall(t *testing.T) {
	cases := []struct {
		w          int
		a, b, want uint64
	}{
		{8, 7, 9, 63},
		{8, 16, 16, 0},   // 256 mod 256
		{8, 255, 255, 1}, // (-1)^2 mod 256
		{16, 300, 300, 90000 % 65536},
		{64, 1 << 32, 1 << 32, 0},
	}
	for _, c := range cases {
		got := Mul(FromUint64(c.w, c.a), FromUint64(c.w, c.b))
		if got.Uint64() != c.want {
			t.Errorf("Mul(%d-bit, %d, %d) = %d, want %d", c.w, c.a, c.b, got.Uint64(), c.want)
		}
	}
}

func TestMulWideMatchesShiftAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		w := 65 + rng.Intn(200)
		a := Random(w, rng)
		b := Random(w, rng)
		// Reference: shift-and-add multiplication.
		want := New(w)
		for i := 0; i < w; i++ {
			if b.Bit(i) {
				want = Add(want, ShiftLeft(a, i))
			}
		}
		got := Mul(a, b)
		if !got.Equal(want) {
			t.Fatalf("width %d: Mul mismatch\n a=%s\n b=%s\n got=%s\nwant=%s",
				w, a.Hex(), b.Hex(), got.Hex(), want.Hex())
		}
	}
}

func TestWidthMismatchPanics(t *testing.T) {
	a, b := New(8), New(9)
	ops := map[string]func(){
		"Add": func() { Add(a, b) },
		"Sub": func() { Sub(a, b) },
		"Mul": func() { Mul(a, b) },
		"Xor": func() { Xor(a, b) },
		"And": func() { And(a, b) },
		"Or":  func() { Or(a, b) },
	}
	for name, op := range ops {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with mismatched widths did not panic", name)
				}
			}()
			op()
		}()
	}
}

func TestNotInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		v := Random(1+rng.Intn(190), rng)
		if !Not(Not(v)).Equal(v) {
			t.Fatalf("Not(Not(v)) != v for %s", v.Hex())
		}
		if And(v, Not(v)).OnesCount() != 0 {
			t.Fatalf("v & ~v != 0 for %s", v.Hex())
		}
		if Or(v, Not(v)).OnesCount() != v.Width() {
			t.Fatalf("v | ~v not all ones for %s", v.Hex())
		}
	}
}

func TestShifts(t *testing.T) {
	v := FromUint64(100, 1)
	v = ShiftLeft(v, 70)
	if !v.Bit(70) || v.OnesCount() != 1 {
		t.Fatalf("ShiftLeft(1, 70) = %s", v.Hex())
	}
	v = ShiftRight(v, 70)
	if !v.Bit(0) || v.OnesCount() != 1 {
		t.Fatalf("round-trip shift = %s", v.Hex())
	}
	if !ShiftLeft(v, 100).IsZero() {
		t.Error("shift past width should be zero")
	}
	if !ShiftRight(v, 100).IsZero() {
		t.Error("shift past width should be zero")
	}
}

func TestShiftLeftDropsHighBits(t *testing.T) {
	v := FromUint64(8, 0x81)
	got := ShiftLeft(v, 1)
	if got.Uint64() != 0x02 {
		t.Errorf("ShiftLeft(0x81, 1) in 8 bits = %#x, want 0x02", got.Uint64())
	}
}

// Property: Add is commutative and associative mod 2^w; Sub is its inverse.
func TestAddPropertiesQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	rng := rand.New(rand.NewSource(11))
	gen := func() (Vector, Vector, Vector) {
		w := 1 + rng.Intn(180)
		return Random(w, rng), Random(w, rng), Random(w, rng)
	}
	prop := func(uint8) bool {
		a, b, c := gen()
		if !Add(a, b).Equal(Add(b, a)) {
			return false
		}
		if !Add(Add(a, b), c).Equal(Add(a, Add(b, c))) {
			return false
		}
		if !Sub(Add(a, b), b).Equal(a) {
			return false
		}
		return Sub(a, a).IsZero()
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Mul distributes over Add mod 2^w.
func TestMulDistributesQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100}
	rng := rand.New(rand.NewSource(13))
	prop := func(uint8) bool {
		w := 1 + rng.Intn(150)
		a, b, c := Random(w, rng), Random(w, rng), Random(w, rng)
		lhs := Mul(a, Add(b, c))
		rhs := Add(Mul(a, b), Mul(a, c))
		return lhs.Equal(rhs)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Xor is self-inverse and String round-trips.
func TestXorStringQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	rng := rand.New(rand.NewSource(17))
	prop := func(uint8) bool {
		w := 1 + rng.Intn(150)
		a, b := Random(w, rng), Random(w, rng)
		if !Xor(Xor(a, b), b).Equal(a) {
			return false
		}
		rt, err := FromString(a.String())
		return err == nil && rt.Equal(a)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	v := FromUint64(64, 5)
	c := v.Clone()
	c.SetBit(10, true)
	if v.Bit(10) {
		t.Error("Clone shares storage with original")
	}
}

func BenchmarkAdd256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := Random(256, rng), Random(256, rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x = Add(x, y)
	}
}

func BenchmarkMul256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := Random(256, rng), Random(256, rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x = Mul(x, y)
	}
}
