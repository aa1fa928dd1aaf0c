// Package interval implements sets of disjoint closed real intervals.
//
// Error-latching windows (ELWs) in soft-error timing analysis are unions of
// disjoint intervals on the time axis (Lu & Zhou, DATE 2013, eq. 2). This
// package provides the set algebra the ELW computation of eq. (3) needs:
// union, scalar shift, total measure, and containment queries.
package interval

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Interval is a closed interval [L, R] with L <= R.
type Interval struct {
	L, R float64
}

// Len returns the length R - L of the interval.
func (iv Interval) Len() float64 { return iv.R - iv.L }

// Contains reports whether t lies in [L, R].
func (iv Interval) Contains(t float64) bool { return iv.L <= t && t <= iv.R }

// Shift returns the interval translated by delta.
func (iv Interval) Shift(delta float64) Interval {
	return Interval{iv.L + delta, iv.R + delta}
}

// Overlaps reports whether the two closed intervals intersect
// (touching endpoints count as overlap, so their union is one interval).
func (iv Interval) Overlaps(o Interval) bool {
	return iv.L <= o.R && o.L <= iv.R
}

func (iv Interval) String() string {
	return fmt.Sprintf("[%g, %g]", iv.L, iv.R)
}

// Set is a union of disjoint, sorted, non-touching closed intervals.
// The zero value is the empty set and is ready to use.
type Set struct {
	ivs []Interval
}

// New builds a Set from arbitrary intervals, merging overlaps.
// Intervals with R < L are rejected with an error.
func New(ivs ...Interval) (Set, error) {
	for _, iv := range ivs {
		if iv.R < iv.L {
			return Set{}, fmt.Errorf("interval: inverted interval [%g, %g]", iv.L, iv.R)
		}
		if math.IsNaN(iv.L) || math.IsNaN(iv.R) {
			return Set{}, fmt.Errorf("interval: NaN bound in [%g, %g]", iv.L, iv.R)
		}
	}
	s := Set{ivs: append([]Interval(nil), ivs...)}
	s.normalize()
	return s, nil
}

// MustNew is New, panicking on invalid input. For tests and literals.
func MustNew(ivs ...Interval) Set {
	s, err := New(ivs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Single returns the set containing exactly [l, r].
func Single(l, r float64) Set {
	if r < l {
		panic(fmt.Sprintf("interval: inverted interval [%g, %g]", l, r))
	}
	return Set{ivs: []Interval{{l, r}}}
}

// normalize sorts and merges the interval list in place.
func (s *Set) normalize() {
	if len(s.ivs) <= 1 {
		return
	}
	slices.SortFunc(s.ivs, func(a, b Interval) int { return cmp.Compare(a.L, b.L) })
	out := s.ivs[:1]
	for _, iv := range s.ivs[1:] {
		last := &out[len(out)-1]
		if iv.L <= last.R {
			if iv.R > last.R {
				last.R = iv.R
			}
		} else {
			out = append(out, iv)
		}
	}
	s.ivs = out
}

// Empty reports whether the set contains no intervals.
func (s Set) Empty() bool { return len(s.ivs) == 0 }

// Count returns the number of disjoint intervals (the paper's l in ELW_l).
func (s Set) Count() int { return len(s.ivs) }

// Intervals returns a copy of the disjoint intervals in ascending order.
func (s Set) Intervals() []Interval {
	return append([]Interval(nil), s.ivs...)
}

// Measure returns the total length sum_i (R_i - L_i), i.e. |ELW| in eq. (4).
func (s Set) Measure() float64 {
	var m float64
	for _, iv := range s.ivs {
		m += iv.Len()
	}
	return m
}

// Min returns the smallest left endpoint L_1. Panics on the empty set.
func (s Set) Min() float64 {
	if s.Empty() {
		panic("interval: Min of empty set")
	}
	return s.ivs[0].L
}

// Max returns the largest right endpoint R_l. Panics on the empty set.
func (s Set) Max() float64 {
	if s.Empty() {
		panic("interval: Max of empty set")
	}
	return s.ivs[len(s.ivs)-1].R
}

// Contains reports whether t lies in some interval of the set.
func (s Set) Contains(t float64) bool {
	// Binary search for the first interval with L > t, then check its
	// predecessor.
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].L > t })
	return i > 0 && s.ivs[i-1].Contains(t)
}

// Union returns the union of s and o.
func (s Set) Union(o Set) Set {
	if s.Empty() {
		return o.clone()
	}
	if o.Empty() {
		return s.clone()
	}
	u := Set{ivs: make([]Interval, len(s.ivs), len(s.ivs)+len(o.ivs))}
	copy(u.ivs, s.ivs)
	u.merge(o.ivs, 0, false)
	return u
}

// UnionInPlace merges o into s, reusing s's storage where possible.
func (s *Set) UnionInPlace(o Set) {
	s.merge(o.ivs, 0, false)
}

// UnionShiftedInPlace merges o translated by delta into s, reusing s's
// storage where possible: s ∪ o.Shift(delta) without materializing the
// shifted copy. Each endpoint of o is shifted with the same L+delta and
// R+delta expressions Shift uses, so the result is bit-identical. It is
// the ELW(f) − d(f) union step of eq. (3).
func (s *Set) UnionShiftedInPlace(o Set, delta float64) {
	s.merge(o.ivs, delta, true)
}

// merge unions the sorted interval list b (translated by delta when
// shift is set) into s in one linear pass. s is normalized; b is sorted
// by both endpoints but, after a rounded shift, its neighbours may touch
// or coincide, so the pass merges within b as well.
//
// The merge runs from the right end of both lists into the tail of s's
// grown storage, taking the interval with the larger R first and folding
// it into the open group while it reaches the group's left end (touching
// counts, as in normalize). This is normalize mirrored: both compute the
// connected components of the union, each as [min L, max R] of exact
// copies of the input endpoints, so the result is the set normalize gives
// the concatenation. The write cursor always stays right of the unread
// part of s, so no scratch list is needed.
func (s *Set) merge(b []Interval, delta float64, shift bool) {
	m := len(b)
	if m == 0 {
		return
	}
	n := len(s.ivs)
	s.ivs = slices.Grow(s.ivs, m)[:n+m]
	a := s.ivs
	i, j, w := n-1, m-1, n+m
	var cur Interval
	open := false
	for i >= 0 || j >= 0 {
		var iv Interval
		if j >= 0 {
			iv = b[j]
			if shift {
				iv = iv.Shift(delta)
			}
		}
		if j < 0 || (i >= 0 && a[i].R >= iv.R) {
			iv = a[i]
			i--
		} else {
			j--
		}
		switch {
		case !open:
			cur, open = iv, true
		case iv.R >= cur.L:
			if iv.L < cur.L {
				cur.L = iv.L
			}
		default:
			w--
			a[w] = cur
			cur = iv
		}
	}
	w--
	a[w] = cur
	s.ivs = a[:copy(a, a[w:])]
}

// Coalesce merges the smallest gaps of s, in place, until at most limit
// intervals remain (ties: the leftmost gap). The result contains s, so it
// soundly over-approximates the set; limit < 1 leaves s unchanged.
func (s *Set) Coalesce(limit int) {
	if limit < 1 {
		return
	}
	ivs := s.ivs
	for len(ivs) > limit {
		best := 1
		bestGap := ivs[1].L - ivs[0].R
		for i := 2; i < len(ivs); i++ {
			if gap := ivs[i].L - ivs[i-1].R; gap < bestGap {
				bestGap = gap
				best = i
			}
		}
		ivs[best-1].R = ivs[best].R
		ivs = append(ivs[:best], ivs[best+1:]...)
	}
	s.ivs = ivs
}

// Reset empties s and keeps its storage for reuse as an accumulator.
func (s *Set) Reset() { s.ivs = s.ivs[:0] }

// Arena hands out the interval storage of many Sets from shared slabs: a
// pass that keeps one set per vertex allocates a few slabs instead of one
// slice per set. Copies are capacity-capped, so growing one set (a later
// UnionInPlace) reallocates it instead of writing into a neighbour. The
// zero value is ready to use.
type Arena struct {
	slab []Interval
}

// NewArena returns an arena whose first slab holds hint intervals.
func NewArena(hint int) *Arena {
	return &Arena{slab: make([]Interval, 0, hint)}
}

// Copy returns a copy of s whose intervals live in the arena.
func (a *Arena) Copy(s Set) Set {
	n := len(s.ivs)
	if n == 0 {
		return Set{}
	}
	if cap(a.slab)-len(a.slab) < n {
		a.slab = make([]Interval, 0, max(2*cap(a.slab), n, 64))
	}
	lo := len(a.slab)
	a.slab = append(a.slab, s.ivs...)
	return Set{ivs: a.slab[lo:len(a.slab):len(a.slab)]}
}

// Shift returns the set translated by delta (the ELW(f) - d(f) operation
// of eq. 3 uses delta = -d(f)).
func (s Set) Shift(delta float64) Set {
	out := Set{ivs: make([]Interval, len(s.ivs))}
	for i, iv := range s.ivs {
		out.ivs[i] = iv.Shift(delta)
	}
	return out
}

// Intersect returns the intersection of s and o.
func (s Set) Intersect(o Set) Set {
	var out Set
	i, j := 0, 0
	for i < len(s.ivs) && j < len(o.ivs) {
		a, b := s.ivs[i], o.ivs[j]
		lo := math.Max(a.L, b.L)
		hi := math.Min(a.R, b.R)
		if lo <= hi {
			out.ivs = append(out.ivs, Interval{lo, hi})
		}
		if a.R < b.R {
			i++
		} else {
			j++
		}
	}
	// Intersection of disjoint sorted sets is disjoint and sorted, but
	// touching endpoints can arise; normalize for canonical form.
	out.normalize()
	return out
}

// Equal reports whether the two sets contain exactly the same intervals.
func (s Set) Equal(o Set) bool {
	if len(s.ivs) != len(o.ivs) {
		return false
	}
	for i := range s.ivs {
		if s.ivs[i] != o.ivs[i] {
			return false
		}
	}
	return true
}

// ApproxEqual reports whether the two sets are equal within eps at every
// endpoint (useful after floating-point shifts).
func (s Set) ApproxEqual(o Set, eps float64) bool {
	if len(s.ivs) != len(o.ivs) {
		return false
	}
	for i := range s.ivs {
		if math.Abs(s.ivs[i].L-o.ivs[i].L) > eps || math.Abs(s.ivs[i].R-o.ivs[i].R) > eps {
			return false
		}
	}
	return true
}

// Clamp returns the subset of s lying within [lo, hi].
func (s Set) Clamp(lo, hi float64) Set {
	if hi < lo {
		return Set{}
	}
	return s.Intersect(Single(lo, hi))
}

func (s Set) clone() Set {
	return Set{ivs: append([]Interval(nil), s.ivs...)}
}

func (s Set) String() string {
	if s.Empty() {
		return "{}"
	}
	parts := make([]string, len(s.ivs))
	for i, iv := range s.ivs {
		parts[i] = iv.String()
	}
	return strings.Join(parts, " ∪ ")
}
