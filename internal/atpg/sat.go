package atpg

// A small conflict-driven clause-learning (CDCL) SAT solver for the
// redundancy prover (prover.go): two watched literals per clause, first-UIP
// learning with local minimization, a VSIDS activity heap, phase saving and
// Luby restarts. Its effort is bounded by a count of conflicts, never by
// time, and it starts from the same state on every reset, so its verdict
// depends only on the clauses it was given and the budget.

// lit is a literal: variable v as 2v, its negation as 2v+1.
type lit int32

func (l lit) not() lit   { return l ^ 1 }
func (l lit) vr() int32  { return int32(l >> 1) }
func posLit(v int32) lit { return lit(v << 1) }
func (l lit) neg() bool  { return l&1 != 0 }

// flip returns ¬l when b holds, else l.
func (l lit) flip(b bool) lit {
	if b {
		return l ^ 1
	}
	return l
}

// verdict is the outcome of one solve.
type verdict int

const (
	unknown verdict = iota // the conflict budget ran out
	satisfiable
	unsatisfiable
)

// watch is one entry of a literal's watch list: the clause (its header
// offset in the arena) and a blocker literal whose truth satisfies it
// without a visit. A binary clause's blocker is its other literal, so it is
// propagated from the watch alone.
type watch struct {
	cref    int32
	blocker lit
	binary  bool
}

const noReason = -1

// sat holds one problem at a time in a flat arena: each clause is a length
// header followed by its literals. reset empties it for the next problem
// and keeps every buffer's capacity.
type sat struct {
	arena   []lit
	watches [][]watch // by literal: the clauses watching it

	// By literal: 1 true, −1 false, 0 unassigned. The rest by variable.
	val      []int8
	level    []int32 // decision level of the assignment
	reason   []int32 // header of the clause that implied it, or noReason
	activity []float64
	phase    []bool // saved polarity: true assigns the negative literal
	seen     []bool // analyze's marks

	// Decision order. Until the first conflict every activity is 0, so the
	// next decision is the unassigned variable of least index: next scans
	// for it. The first bump builds heap, which then holds every
	// unassigned variable by descending activity.
	next   int32
	heaped bool
	heap   []int32
	hpos   []int32 // position in heap, −1 when out

	trail    []lit
	trailLim []int32 // trail length at each decision level
	qhead    int
	varInc   float64

	learnt []lit // scratch for analyze
	toClr  []int32

	conflicts int // conflicts of the last solve
}

// reset empties the solver.
func (s *sat) reset() {
	s.arena = s.arena[:0]
	for i := range s.watches {
		s.watches[i] = s.watches[i][:0]
	}
	s.watches = s.watches[:0]
	s.val = s.val[:0]
	s.level, s.reason, s.activity = s.level[:0], s.reason[:0], s.activity[:0]
	s.phase, s.seen, s.hpos = s.phase[:0], s.seen[:0], s.hpos[:0]
	s.next, s.heaped, s.heap = 0, false, s.heap[:0]
	s.trail, s.trailLim = s.trail[:0], s.trailLim[:0]
	s.qhead = 0
	s.varInc = 1
	s.conflicts = 0
}

// newVar makes a variable and returns its positive literal.
func (s *sat) newVar() lit {
	v := int32(len(s.level))
	if cap(s.watches) >= len(s.watches)+2 {
		s.watches = s.watches[:len(s.watches)+2]
	} else {
		s.watches = append(s.watches, nil, nil)
	}
	s.val = append(s.val, 0, 0)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, noReason)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, true)
	s.seen = append(s.seen, false)
	s.hpos = append(s.hpos, -1)
	return posLit(v)
}

// addClause adds a clause over existing variables. It must be called before
// solve.
func (s *sat) addClause(lits ...lit) {
	s.arena = append(s.arena, lit(len(lits)))
	s.arena = append(s.arena, lits...)
}

// solve decides the clauses added since the last reset, giving up with
// unknown at the first conflict past budget. After satisfiable, val holds
// a model: 1 for each true literal.
func (s *sat) solve(budget int) verdict {
	end := int32(len(s.arena))
	for c := int32(0); c < end; c += int32(s.arena[c]) + 1 {
		switch n := s.arena[c]; n {
		case 0:
			return unsatisfiable
		case 1:
			switch s.val[s.arena[c+1]] {
			case -1:
				return unsatisfiable
			case 0:
				s.enqueue(s.arena[c+1], noReason)
			}
		default:
			s.attach(c)
		}
	}
	if s.propagate() != noReason {
		return unsatisfiable
	}
	for restart := 1; ; restart++ {
		switch v := s.search(int(luby(restart))*restartUnit, budget); v {
		case satisfiable, unsatisfiable:
			return v
		}
		if s.conflicts >= budget {
			return unknown
		}
		s.cancelUntil(0)
	}
}

// restartUnit is the number of conflicts in one unit of the Luby restart
// sequence.
const restartUnit = 64

// search runs CDCL until a verdict, limit conflicts in this restart, or the
// budget runs out; the last two return unknown. A conflict at level 0
// completes a proof and is never refused; any other conflict past the
// budget is.
func (s *sat) search(limit, budget int) verdict {
	for n := 0; ; {
		confl := s.propagate()
		if confl != noReason {
			if len(s.trailLim) == 0 {
				s.conflicts++
				return unsatisfiable
			}
			if s.conflicts >= budget {
				return unknown
			}
			s.conflicts++
			n++
			bt := s.analyze(confl)
			s.cancelUntil(bt)
			if len(s.learnt) == 1 {
				s.enqueue(s.learnt[0], noReason)
			} else {
				c := int32(len(s.arena))
				s.arena = append(s.arena, lit(len(s.learnt)))
				s.arena = append(s.arena, s.learnt...)
				s.attach(c)
				s.enqueue(s.learnt[0], c)
			}
			s.varInc /= 0.95
			continue
		}
		if n >= limit {
			return unknown
		}
		v := s.pickBranch()
		if v < 0 {
			return satisfiable
		}
		s.trailLim = append(s.trailLim, int32(len(s.trail)))
		s.enqueue(posLit(v).flip(s.phase[v]), noReason)
	}
}

// attach watches the first two literals of the clause at c.
func (s *sat) attach(c int32) {
	a, b := s.arena[c+1], s.arena[c+2]
	bin := s.arena[c] == 2
	s.watches[a] = append(s.watches[a], watch{cref: c, blocker: b, binary: bin})
	s.watches[b] = append(s.watches[b], watch{cref: c, blocker: a, binary: bin})
}

func (s *sat) enqueue(l lit, from int32) {
	v := l.vr()
	s.val[l], s.val[l^1] = 1, -1
	s.level[v] = int32(len(s.trailLim))
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate assigns every literal the clauses imply and returns the header
// of a clause falsified on the way, or noReason.
func (s *sat) propagate() int32 {
	for s.qhead < len(s.trail) {
		falseLit := s.trail[s.qhead].not()
		s.qhead++
		ws := s.watches[falseLit]
		i, j := 0, 0
		for i < len(ws) {
			w := ws[i]
			i++
			if s.val[w.blocker] == 1 {
				ws[j] = w
				j++
				continue
			}
			if w.binary {
				ws[j] = w
				j++
				if s.val[w.blocker] == -1 {
					j += copy(ws[j:], ws[i:])
					s.watches[falseLit] = ws[:j]
					return w.cref
				}
				s.enqueue(w.blocker, w.cref)
				continue
			}
			c := s.arena[w.cref+1 : w.cref+1+int32(s.arena[w.cref])]
			if c[0] == falseLit {
				c[0], c[1] = c[1], falseLit
			}
			first := c[0]
			if first != w.blocker && s.val[first] == 1 {
				ws[j] = watch{cref: w.cref, blocker: first}
				j++
				continue
			}
			moved := false
			for k := 2; k < len(c); k++ {
				if s.val[c[k]] != -1 {
					c[1], c[k] = c[k], falseLit
					s.watches[c[1]] = append(s.watches[c[1]], watch{cref: w.cref, blocker: first})
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			ws[j] = watch{cref: w.cref, blocker: first}
			j++
			if s.val[first] == -1 {
				j += copy(ws[j:], ws[i:])
				s.watches[falseLit] = ws[:j]
				return w.cref
			}
			s.enqueue(first, w.cref)
		}
		s.watches[falseLit] = ws[:j]
	}
	return noReason
}

// analyze derives the first-UIP clause of the conflict at confl into
// s.learnt, asserting literal first, and returns the level to backjump to.
func (s *sat) analyze(confl int32) int {
	s.learnt = append(s.learnt[:0], 0)
	cur := int32(len(s.trailLim))
	pathC := 0
	var p lit = -1
	idx := len(s.trail) - 1
	for {
		n := int32(s.arena[confl])
		for _, q := range s.arena[confl+1 : confl+1+n] {
			v := q.vr()
			if q == p || s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.bump(v)
			s.seen[v] = true
			if s.level[v] >= cur {
				pathC++
			} else {
				s.learnt = append(s.learnt, q)
			}
		}
		for !s.seen[s.trail[idx].vr()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.vr()] = false
		pathC--
		if pathC == 0 {
			break
		}
		confl = s.reason[p.vr()]
	}
	s.learnt[0] = p.not()

	// Local minimization: drop a literal whose reason's other literals are
	// all in the clause already or fixed at level 0.
	s.toClr = s.toClr[:0]
	for _, q := range s.learnt[1:] {
		s.toClr = append(s.toClr, q.vr())
	}
	j := 1
	for _, q := range s.learnt[1:] {
		if !s.redundant(q) {
			s.learnt[j] = q
			j++
		}
	}
	s.learnt = s.learnt[:j]
	for _, v := range s.toClr {
		s.seen[v] = false
	}

	// Backjump to the second-highest level, with its literal watched.
	bt := 0
	if len(s.learnt) > 1 {
		m := 1
		for k := 2; k < len(s.learnt); k++ {
			if s.level[s.learnt[k].vr()] > s.level[s.learnt[m].vr()] {
				m = k
			}
		}
		s.learnt[1], s.learnt[m] = s.learnt[m], s.learnt[1]
		bt = int(s.level[s.learnt[1].vr()])
	}
	return bt
}

// redundant reports whether learnt literal q is implied by the others.
func (s *sat) redundant(q lit) bool {
	r := s.reason[q.vr()]
	if r == noReason {
		return false
	}
	n := int32(s.arena[r])
	for _, x := range s.arena[r+1 : r+1+n] {
		if v := x.vr(); v != q.vr() && !s.seen[v] && s.level[v] > 0 {
			return false
		}
	}
	return true
}

// cancelUntil undoes every assignment above level, saving phases.
func (s *sat) cancelUntil(level int) {
	if len(s.trailLim) <= level {
		return
	}
	lim := int(s.trailLim[level])
	for i := len(s.trail) - 1; i >= lim; i-- {
		l := s.trail[i]
		v := l.vr()
		s.val[l], s.val[l^1] = 0, 0
		s.reason[v] = noReason
		s.phase[v] = l.neg()
		switch {
		case !s.heaped:
			s.next = min(s.next, v)
		case s.hpos[v] < 0:
			s.heapInsert(v)
		}
	}
	s.trail = s.trail[:lim]
	s.trailLim = s.trailLim[:level]
	s.qhead = lim
}

// pickBranch returns the unassigned variable of highest activity, or −1
// when every variable is assigned.
func (s *sat) pickBranch() int32 {
	if !s.heaped {
		for ; int(s.next) < len(s.level); s.next++ {
			if s.val[posLit(s.next)] == 0 {
				return s.next
			}
		}
		return -1
	}
	for len(s.heap) > 0 {
		v := s.heapPop()
		if s.val[posLit(v)] == 0 {
			return v
		}
	}
	return -1
}

// bump raises a variable's activity, rescaling all of them before they
// overflow.
func (s *sat) bump(v int32) {
	if !s.heaped {
		s.heaped = true
		for u := range int32(len(s.level)) {
			s.heapInsert(u) // equal activities: no sifting
		}
	}
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if s.hpos[v] >= 0 {
		s.heapUp(int(s.hpos[v]))
	}
}

// before orders the heap: higher activity first, then lower index, so the
// order never depends on anything but the solve's own history.
func (s *sat) before(a, b int32) bool {
	if s.activity[a] != s.activity[b] {
		return s.activity[a] > s.activity[b]
	}
	return a < b
}

func (s *sat) heapInsert(v int32) {
	s.hpos[v] = int32(len(s.heap))
	s.heap = append(s.heap, v)
	s.heapUp(len(s.heap) - 1)
}

func (s *sat) heapPop() int32 {
	top := s.heap[0]
	last := s.heap[len(s.heap)-1]
	s.heap = s.heap[:len(s.heap)-1]
	s.hpos[top] = -1
	if len(s.heap) > 0 {
		s.heap[0] = last
		s.hpos[last] = 0
		s.heapDown(0)
	}
	return top
}

func (s *sat) heapUp(i int) {
	v := s.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !s.before(v, s.heap[parent]) {
			break
		}
		s.heap[i] = s.heap[parent]
		s.hpos[s.heap[i]] = int32(i)
		i = parent
	}
	s.heap[i] = v
	s.hpos[v] = int32(i)
}

func (s *sat) heapDown(i int) {
	v := s.heap[i]
	for {
		child := 2*i + 1
		if child >= len(s.heap) {
			break
		}
		if child+1 < len(s.heap) && s.before(s.heap[child+1], s.heap[child]) {
			child++
		}
		if !s.before(s.heap[child], v) {
			break
		}
		s.heap[i] = s.heap[child]
		s.hpos[s.heap[i]] = int32(i)
		i = child
	}
	s.heap[i] = v
	s.hpos[v] = int32(i)
}

// luby returns the i-th element (from 1) of the Luby sequence
// 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, …
func luby(i int) int64 {
	for k := 1; ; k++ {
		if i == 1<<k-1 {
			return 1 << (k - 1)
		}
		if i < 1<<k-1 {
			return luby(i - (1<<(k-1) - 1))
		}
	}
}
