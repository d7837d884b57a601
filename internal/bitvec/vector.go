// Package bitvec provides fixed-width bit vectors with modular arithmetic
// and dense bit sets.
//
// Vectors are the patterns and seeds of the reseeding flow: a test pattern
// applied to a unit under test, the state register value δ of a test pattern
// generator, or its input register value θ. Because accumulator-based TPGs
// compute S ← S ∘ θ (∘ ∈ {+, −, ×}) modulo 2^width at the full width of the
// unit under test, Vector implements multi-limb modular arithmetic rather
// than capping widths at 64 bits.
//
// Sets are used for fault subsets: the rows and columns of the Detection
// Matrix and the working tables of the set covering engine.
package bitvec

import (
	"fmt"
	"math/rand"
	"strings"
)

const wordBits = 64

// Vector is a fixed-width bit vector backed by 64-bit limbs, least
// significant limb first. Bit 0 is the least significant bit. All arithmetic
// is performed modulo 2^Width.
//
// The zero value is a zero-width vector; use New or one of the From
// constructors to obtain a usable vector.
type Vector struct {
	width int
	limbs []uint64
}

func limbCount(width int) int {
	if width <= 0 {
		return 0
	}
	return (width + wordBits - 1) / wordBits
}

// New returns an all-zero vector of the given width. It panics if width is
// negative.
func New(width int) Vector {
	if width < 0 {
		panic(fmt.Sprintf("bitvec: negative width %d", width))
	}
	return Vector{width: width, limbs: make([]uint64, limbCount(width))}
}

// FromUint64 returns a vector of the given width holding v mod 2^width.
func FromUint64(width int, v uint64) Vector {
	out := New(width)
	if len(out.limbs) > 0 {
		out.limbs[0] = v
	}
	out.mask()
	return out
}

// FromLimbs returns a vector of the given width initialized from the given
// limbs (least significant first). Extra limbs and bits beyond width are
// discarded.
func FromLimbs(width int, limbs []uint64) Vector {
	out := New(width)
	copy(out.limbs, limbs)
	out.mask()
	return out
}

// FromString parses a binary string written most-significant-bit first, such
// as "1010". It returns an error if s contains characters other than '0' and
// '1' or is empty.
func FromString(s string) (Vector, error) {
	if len(s) == 0 {
		return Vector{}, fmt.Errorf("bitvec: empty string")
	}
	out := New(len(s))
	for i, c := range s {
		switch c {
		case '0':
		case '1':
			out.SetBit(len(s)-1-i, true)
		default:
			return Vector{}, fmt.Errorf("bitvec: invalid character %q in %q", c, s)
		}
	}
	return out, nil
}

// MustFromString is like FromString but panics on error. It is intended for
// tests and compile-time-constant patterns.
func MustFromString(s string) Vector {
	v, err := FromString(s)
	if err != nil {
		panic(err)
	}
	return v
}

// Random returns a uniformly random vector of the given width drawn from rng.
func Random(width int, rng *rand.Rand) Vector {
	out := New(width)
	for i := range out.limbs {
		out.limbs[i] = rng.Uint64()
	}
	out.mask()
	return out
}

// mask clears any bits above width in the top limb.
func (v *Vector) mask() {
	if v.width == 0 || len(v.limbs) == 0 {
		return
	}
	rem := v.width % wordBits
	if rem != 0 {
		v.limbs[len(v.limbs)-1] &= (uint64(1) << rem) - 1
	}
}

// Width returns the vector's width in bits.
func (v Vector) Width() int { return v.width }

// Bit reports whether bit i is set. It panics if i is out of range.
func (v Vector) Bit(i int) bool {
	if i < 0 || i >= v.width {
		panic(fmt.Sprintf("bitvec: bit index %d out of range for width %d", i, v.width))
	}
	return v.limbs[i/wordBits]>>(uint(i)%wordBits)&1 == 1
}

// Limb returns bits 64j to 64j+63 as one word, bit 64j least significant,
// without copying. It panics if j is not below ⌈Width/64⌉.
func (v Vector) Limb(j int) uint64 { return v.limbs[j] }

// SetBit sets bit i to b. It panics if i is out of range.
func (v *Vector) SetBit(i int, b bool) {
	if i < 0 || i >= v.width {
		panic(fmt.Sprintf("bitvec: bit index %d out of range for width %d", i, v.width))
	}
	if b {
		v.limbs[i/wordBits] |= 1 << (uint(i) % wordBits)
	} else {
		v.limbs[i/wordBits] &^= 1 << (uint(i) % wordBits)
	}
}

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	out := Vector{width: v.width, limbs: make([]uint64, len(v.limbs))}
	copy(out.limbs, v.limbs)
	return out
}

// Equal reports whether v and u have the same width and bits.
func (v Vector) Equal(u Vector) bool {
	if v.width != u.width {
		return false
	}
	for i := range v.limbs {
		if v.limbs[i] != u.limbs[i] {
			return false
		}
	}
	return true
}

// IsZero reports whether all bits of v are zero.
func (v Vector) IsZero() bool {
	for _, w := range v.limbs {
		if w != 0 {
			return false
		}
	}
	return true
}

// Uint64 returns the low 64 bits of v.
func (v Vector) Uint64() uint64 {
	if len(v.limbs) == 0 {
		return 0
	}
	return v.limbs[0]
}

// Limbs returns a copy of the underlying limbs, least significant first.
func (v Vector) Limbs() []uint64 {
	out := make([]uint64, len(v.limbs))
	copy(out, v.limbs)
	return out
}

// OnesCount returns the number of set bits.
func (v Vector) OnesCount() int {
	n := 0
	for _, w := range v.limbs {
		n += popcount(w)
	}
	return n
}

// String renders v as a binary string, most significant bit first.
func (v Vector) String() string {
	if v.width == 0 {
		return ""
	}
	var b strings.Builder
	b.Grow(v.width)
	for i := v.width - 1; i >= 0; i-- {
		if v.Bit(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// Hex renders v as a hexadecimal string, most significant digit first, with
// enough digits to cover the width.
func (v Vector) Hex() string {
	return hexString(v.width, v.limbs)
}

// hexString is the shared Hex rendering of Vector and Set: width bits from
// 64-bit words, least significant word first, as ceil(width/4) lowercase
// digits.
func hexString(width int, words []uint64) string {
	if width == 0 {
		return ""
	}
	digits := (width + 3) / 4
	var b strings.Builder
	for i := digits - 1; i >= 0; i-- {
		nibble := words[i/16] >> (uint(i%16) * 4) & 0xf
		b.WriteByte("0123456789abcdef"[nibble])
	}
	return b.String()
}

// FromHex parses a hexadecimal string written most-significant-digit first —
// the Hex rendering — into a vector of the given width. Upper- and lowercase
// digits are accepted, the string may be shorter or longer than the width
// needs, and a set bit at or beyond width is an error rather than silently
// dropped, so a persisted vector can never be truncated unnoticed.
func FromHex(width int, s string) (Vector, error) {
	v := New(width)
	for i := 0; i < len(s); i++ {
		c := s[len(s)-1-i]
		var nibble uint64
		switch {
		case c >= '0' && c <= '9':
			nibble = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			nibble = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			nibble = uint64(c-'A') + 10
		default:
			return Vector{}, fmt.Errorf("bitvec: invalid hex digit %q", c)
		}
		for b := 0; b < 4; b++ {
			if nibble>>uint(b)&1 == 0 {
				continue
			}
			bit := 4*i + b
			if bit >= width {
				return Vector{}, fmt.Errorf("bitvec: hex value wider than %d bits", width)
			}
			v.SetBit(bit, true)
		}
	}
	return v, nil
}

func checkSameWidth(op string, a, b Vector) {
	if a.width != b.width {
		panic(fmt.Sprintf("bitvec: %s width mismatch %d vs %d", op, a.width, b.width))
	}
}

// Add returns a+b mod 2^width. It panics if the widths differ.
func Add(a, b Vector) Vector {
	checkSameWidth("Add", a, b)
	out := New(a.width)
	var carry uint64
	for i := range a.limbs {
		s := a.limbs[i] + b.limbs[i]
		c1 := boolToWord(s < a.limbs[i])
		s2 := s + carry
		c2 := boolToWord(s2 < s)
		out.limbs[i] = s2
		carry = c1 | c2
	}
	out.mask()
	return out
}

// Sub returns a-b mod 2^width. It panics if the widths differ.
func Sub(a, b Vector) Vector {
	checkSameWidth("Sub", a, b)
	out := New(a.width)
	var borrow uint64
	for i := range a.limbs {
		d := a.limbs[i] - b.limbs[i]
		b1 := boolToWord(a.limbs[i] < b.limbs[i])
		d2 := d - borrow
		b2 := boolToWord(d < borrow)
		out.limbs[i] = d2
		borrow = b1 | b2
	}
	out.mask()
	return out
}

// Mul returns a*b mod 2^width using schoolbook multiplication over 32-bit
// half-limbs. It panics if the widths differ.
func Mul(a, b Vector) Vector {
	checkSameWidth("Mul", a, b)
	n := len(a.limbs)
	out := New(a.width)
	if n == 0 {
		return out
	}
	// Split into 32-bit halves to keep partial products within uint64.
	ha := toHalves(a.limbs)
	hb := toHalves(b.limbs)
	acc := make([]uint64, 2*n) // 32-bit halves of the result
	for i := 0; i < len(ha); i++ {
		if ha[i] == 0 {
			continue
		}
		var carry uint64
		for j := 0; i+j < len(acc); j++ {
			var pb uint64
			if j < len(hb) {
				pb = hb[j]
			} else if carry == 0 {
				break
			}
			cur := acc[i+j] + ha[i]*pb + carry
			acc[i+j] = cur & 0xffffffff
			carry = cur >> 32
		}
	}
	for i := 0; i < n; i++ {
		out.limbs[i] = acc[2*i] | acc[2*i+1]<<32
	}
	out.mask()
	return out
}

// Xor returns the bitwise exclusive-or of a and b. It panics if the widths
// differ.
func Xor(a, b Vector) Vector {
	checkSameWidth("Xor", a, b)
	out := New(a.width)
	for i := range a.limbs {
		out.limbs[i] = a.limbs[i] ^ b.limbs[i]
	}
	return out
}

// And returns the bitwise and of a and b. It panics if the widths differ.
func And(a, b Vector) Vector {
	checkSameWidth("And", a, b)
	out := New(a.width)
	for i := range a.limbs {
		out.limbs[i] = a.limbs[i] & b.limbs[i]
	}
	return out
}

// Or returns the bitwise or of a and b. It panics if the widths differ.
func Or(a, b Vector) Vector {
	checkSameWidth("Or", a, b)
	out := New(a.width)
	for i := range a.limbs {
		out.limbs[i] = a.limbs[i] | b.limbs[i]
	}
	return out
}

// Not returns the bitwise complement of a within its width.
func Not(a Vector) Vector {
	out := New(a.width)
	for i := range a.limbs {
		out.limbs[i] = ^a.limbs[i]
	}
	out.mask()
	return out
}

// ShiftLeft returns a<<k mod 2^width. Shifting by k ≥ width yields zero.
func ShiftLeft(a Vector, k int) Vector {
	if k < 0 {
		panic(fmt.Sprintf("bitvec: negative shift %d", k))
	}
	out := New(a.width)
	if k >= a.width {
		return out
	}
	limbShift, bitShift := k/wordBits, uint(k%wordBits)
	for i := len(a.limbs) - 1; i >= limbShift; i-- {
		w := a.limbs[i-limbShift] << bitShift
		if bitShift > 0 && i-limbShift-1 >= 0 {
			w |= a.limbs[i-limbShift-1] >> (wordBits - bitShift)
		}
		out.limbs[i] = w
	}
	out.mask()
	return out
}

// ShiftRight returns a>>k (logical). Shifting by k ≥ width yields zero.
func ShiftRight(a Vector, k int) Vector {
	if k < 0 {
		panic(fmt.Sprintf("bitvec: negative shift %d", k))
	}
	out := New(a.width)
	if k >= a.width {
		return out
	}
	limbShift, bitShift := k/wordBits, uint(k%wordBits)
	for i := 0; i+limbShift < len(a.limbs); i++ {
		w := a.limbs[i+limbShift] >> bitShift
		if bitShift > 0 && i+limbShift+1 < len(a.limbs) {
			w |= a.limbs[i+limbShift+1] << (wordBits - bitShift)
		}
		out.limbs[i] = w
	}
	out.mask()
	return out
}

func toHalves(limbs []uint64) []uint64 {
	out := make([]uint64, 2*len(limbs))
	for i, w := range limbs {
		out[2*i] = w & 0xffffffff
		out[2*i+1] = w >> 32
	}
	return out
}

func boolToWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
