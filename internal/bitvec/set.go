package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

func popcount(w uint64) int { return bits.OnesCount64(w) }

// Set is a dense bit set over the universe {0, ..., n-1}. It is the fault-set
// representation used for Detection Matrix rows and the covering engine's
// tables.
//
// Unlike Vector, Set is a reference type with in-place mutating operations,
// because covering-table reduction performs many destructive updates on large
// sets.
type Set struct {
	n     int
	words []uint64
}

// NewSet returns an empty set over a universe of size n. It panics if n is
// negative.
func NewSet(n int) *Set {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative universe size %d", n))
	}
	return &Set{n: n, words: make([]uint64, limbCount(n))}
}

// Universe returns the universe size the set was created with.
func (s *Set) Universe() int { return s.n }

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitvec: element %d out of range for universe %d", i, s.n))
	}
}

// Add inserts element i.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Remove deletes element i.
func (s *Set) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Contains reports whether i is in the set.
func (s *Set) Contains(i int) bool {
	s.check(i)
	return s.words[i/wordBits]>>(uint(i)%wordBits)&1 == 1
}

// Len returns the number of elements in the set.
func (s *Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += popcount(w)
	}
	return n
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clear removes all elements.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Fill inserts every element of the universe.
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	rem := s.n % wordBits
	if rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (uint64(1) << rem) - 1
	}
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	out := &Set{n: s.n, words: make([]uint64, len(s.words))}
	copy(out.words, s.words)
	return out
}

func (s *Set) checkSame(op string, o *Set) {
	if s.n != o.n {
		panic(fmt.Sprintf("bitvec: %s universe mismatch %d vs %d", op, s.n, o.n))
	}
}

// Or adds every element of o to s (in place union).
func (s *Set) Or(o *Set) {
	s.checkSame("Or", o)
	for i := range s.words {
		s.words[i] |= o.words[i]
	}
}

// And removes every element of s not in o (in place intersection).
func (s *Set) And(o *Set) {
	s.checkSame("And", o)
	for i := range s.words {
		s.words[i] &= o.words[i]
	}
}

// AndNot removes every element of o from s (in place difference).
func (s *Set) AndNot(o *Set) {
	s.checkSame("AndNot", o)
	for i := range s.words {
		s.words[i] &^= o.words[i]
	}
}

// SubsetOf reports whether every element of s is also in o.
func (s *Set) SubsetOf(o *Set) bool {
	s.checkSame("SubsetOf", o)
	for i := range s.words {
		if s.words[i]&^o.words[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and o contain exactly the same elements.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether s and o share at least one element.
func (s *Set) Intersects(o *Set) bool {
	s.checkSame("Intersects", o)
	for i := range s.words {
		if s.words[i]&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// IntersectionLen returns |s ∩ o| without allocating.
func (s *Set) IntersectionLen(o *Set) int {
	s.checkSame("IntersectionLen", o)
	n := 0
	for i := range s.words {
		n += popcount(s.words[i] & o.words[i])
	}
	return n
}

// ForEach calls fn for every element in ascending order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// ForEachIn calls fn for every element of s ∩ o in ascending order, without
// materializing the intersection — the covering engine's "walk a row's
// still-uncovered columns" primitive (one AND per word, then bit scanning).
func (s *Set) ForEachIn(o *Set, fn func(i int)) {
	s.checkSame("ForEachIn", o)
	for wi, w := range s.words {
		w &= o.words[wi]
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// Words returns the set's storage, element i at bit i%64 of word i/64,
// with every bit at or past the universe clear. It is a read-only view
// for word-at-a-time consumers: writing through it changes the set.
func (s *Set) Words() []uint64 { return s.words }

// Elements returns the elements in ascending order.
func (s *Set) Elements() []int {
	out := make([]int, 0, s.Len())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// First returns the smallest element, or -1 if the set is empty.
func (s *Set) First() int {
	for wi, w := range s.words {
		if w != 0 {
			return wi*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// FirstNotIn returns the smallest element of s \ o, or -1 if the difference
// is empty. It is First for a set difference, without materializing it —
// the covering engine's "find the forced row" primitive.
func (s *Set) FirstNotIn(o *Set) int {
	s.checkSame("FirstNotIn", o)
	for wi, w := range s.words {
		if d := w &^ o.words[wi]; d != 0 {
			return wi*wordBits + bits.TrailingZeros64(d)
		}
	}
	return -1
}

// Hex renders the set as a hexadecimal string over its universe — the same
// most-significant-digit-first encoding Vector.Hex uses (element i is bit i).
// It is the stable on-disk form of Detection Matrix rows (internal/store).
func (s *Set) Hex() string {
	return hexString(s.n, s.words)
}

// SetFromHex parses a set over a universe of size n from its Hex rendering.
// An element at or beyond n is an error, mirroring FromHex.
func SetFromHex(n int, str string) (*Set, error) {
	v, err := FromHex(n, str)
	if err != nil {
		return nil, err
	}
	return &Set{n: n, words: v.limbs}, nil
}

// Hash returns a 64-bit FNV-1a style hash of the set contents, used to group
// identical rows or columns before dominance checks.
func (s *Set) Hash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, w := range s.words {
		h ^= w
		h *= prime
	}
	return h
}

// String renders the set as "{a, b, c}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	b.WriteByte('}')
	return b.String()
}
