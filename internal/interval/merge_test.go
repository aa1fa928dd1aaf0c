package interval

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// legacyNormalize is the append + sort.Slice normalize that the linear
// merge replaced, kept verbatim as the reference of the merge tests.
func legacyNormalize(ivs []Interval) []Interval {
	if len(ivs) <= 1 {
		return ivs
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].L < ivs[j].L })
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.L <= last.R {
			if iv.R > last.R {
				last.R = iv.R
			}
		} else {
			out = append(out, iv)
		}
	}
	return out
}

// gridIntervals draws up to 8 intervals with endpoints on a half-unit grid
// around zero, so equal left ends, touching endpoints, zero-length
// intervals and negative bounds are all common.
func gridIntervals(r *rand.Rand) []Interval {
	ivs := make([]Interval, r.Intn(9))
	for i := range ivs {
		l := float64(r.Intn(41)-20) / 2
		ivs[i] = Interval{l, l + float64(r.Intn(6))/2}
	}
	return ivs
}

// shiftDeltas mixes exact shifts with ones that round (0.1 and 0.7 are
// not binary fractions), which can make a shifted set's neighbours touch.
var shiftDeltas = []float64{0, -0.5, 2, -0.1, -0.7, 1.3, -1e-12, -7.9}

func sameIntervals(s Set, want []Interval) bool {
	if len(s.ivs) != len(want) {
		return false
	}
	for i := range want {
		if s.ivs[i] != want[i] {
			return false
		}
	}
	return true
}

// TestPropertyMergeMatchesLegacyNormalize: New, Union, UnionInPlace and
// UnionShiftedInPlace return exactly the intervals of appending and
// running the old normalize.
func TestPropertyMergeMatchesLegacyNormalize(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rawA, rawB := gridIntervals(r), gridIntervals(r)
		a, b := MustNew(rawA...), MustNew(rawB...)
		if !sameIntervals(a, legacyNormalize(append([]Interval(nil), rawA...))) {
			t.Logf("New(%v) = %v", rawA, a)
			return false
		}
		plain := legacyNormalize(append(a.Intervals(), b.Intervals()...))
		if u := a.Union(b); !sameIntervals(u, plain) {
			t.Logf("%v ∪ %v = %v, legacy %v", a, b, u, plain)
			return false
		}
		u := a.clone()
		u.UnionInPlace(b)
		if !sameIntervals(u, plain) {
			t.Logf("%v ∪= %v = %v, legacy %v", a, b, u, plain)
			return false
		}
		for _, d := range shiftDeltas {
			want := legacyNormalize(append(a.Intervals(), b.Shift(d).ivs...))
			u := a.clone()
			u.UnionShiftedInPlace(b, d)
			if !sameIntervals(u, want) {
				t.Logf("%v ∪ (%v %+g) = %v, legacy %v", a, b, d, u, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestUnionShiftedInPlaceAccumulates: folding many shifted sets into one
// reused accumulator equals the legacy fold, and Reset keeps no residue.
func TestUnionShiftedInPlaceAccumulates(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	var acc Set
	for round := 0; round < 200; round++ {
		acc.Reset()
		var want []Interval
		for k := r.Intn(6); k > 0; k-- {
			o := MustNew(gridIntervals(r)...)
			d := shiftDeltas[r.Intn(len(shiftDeltas))]
			acc.UnionShiftedInPlace(o, d)
			want = legacyNormalize(append(want, o.Shift(d).ivs...))
		}
		if !sameIntervals(acc, want) {
			t.Fatalf("round %d: %v, legacy %v", round, acc, want)
		}
	}
}

func TestCoalesce(t *testing.T) {
	s := MustNew(Interval{0, 1}, Interval{3, 4}, Interval{4.5, 5}, Interval{9, 10})
	s.Coalesce(2)
	if want := MustNew(Interval{0, 5}, Interval{9, 10}); !s.Equal(want) {
		t.Fatalf("Coalesce(2) = %v, want %v", s, want)
	}
	s.Coalesce(0)
	if s.Count() != 2 {
		t.Fatalf("Coalesce(0) changed the set: %v", s)
	}
	// Equal gaps: the leftmost merges first.
	s = MustNew(Interval{0, 1}, Interval{2, 3}, Interval{4, 5})
	s.Coalesce(2)
	if want := MustNew(Interval{0, 3}, Interval{4, 5}); !s.Equal(want) {
		t.Fatalf("tie: %v, want %v", s, want)
	}
}

// TestArenaCopiesAreIsolated: arena copies are equal to their sources,
// survive slab growth, and growing one never writes into its neighbour.
func TestArenaCopiesAreIsolated(t *testing.T) {
	a := NewArena(4)
	x := a.Copy(MustNew(Interval{0, 1}, Interval{2, 3}))
	y := a.Copy(MustNew(Interval{5, 6}))
	z := a.Copy(MustNew(Interval{7, 8}, Interval{9, 9})) // a new slab
	if !a.Copy(Set{}).Empty() {
		t.Fatal("copy of the empty set is not empty")
	}
	x.UnionInPlace(Single(10, 11))
	if want := MustNew(Interval{5, 6}); !y.Equal(want) {
		t.Fatalf("neighbour overwritten: %v", y)
	}
	if want := MustNew(Interval{0, 1}, Interval{2, 3}, Interval{10, 11}); !x.Equal(want) {
		t.Fatalf("grown copy = %v, want %v", x, want)
	}
	if want := MustNew(Interval{7, 8}, Interval{9, 9}); !z.Equal(want) {
		t.Fatalf("copy after slab growth = %v, want %v", z, want)
	}
}
