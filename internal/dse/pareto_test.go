package dse

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b Objectives
		want bool
	}{
		{Objectives{1, 1}, Objectives{2, 2}, true},
		{Objectives{1, 2}, Objectives{2, 1}, false},
		{Objectives{1, 1}, Objectives{1, 1}, false}, // equal: no strict improvement
		{Objectives{1, 1}, Objectives{1, 2}, true},
		{Objectives{2, 2}, Objectives{1, 1}, false},
	}
	for _, c := range cases {
		if got := Dominates(c.a, c.b); got != c.want {
			t.Errorf("Dominates(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// Dominance must be a strict partial order: irreflexive, asymmetric,
// transitive.
func TestDominanceIsStrictPartialOrder(t *testing.T) {
	gen := func(r *rand.Rand) Objectives {
		o := make(Objectives, 3)
		for i := range o {
			o[i] = float64(r.Intn(5))
		}
		return o
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := gen(r), gen(r), gen(r)
		if Dominates(a, a) {
			return false // irreflexive
		}
		if Dominates(a, b) && Dominates(b, a) {
			return false // asymmetric
		}
		if Dominates(a, b) && Dominates(b, c) && !Dominates(a, c) {
			return false // transitive
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(v []reflect.Value, r *rand.Rand) {
			v[0] = reflect.ValueOf(r.Int63())
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func mkPoints(objs ...[]float64) []Point {
	pts := make([]Point, len(objs))
	for i, o := range objs {
		pts[i] = Point{Objs: o, Feasible: true}
	}
	return pts
}

// TestNonDominated pins Merge as the batch Pareto filter: dominated points,
// later duplicates and infeasible points stay out.
func TestNonDominated(t *testing.T) {
	pts := mkPoints(
		[]float64{1, 5},
		[]float64{2, 3},
		[]float64{3, 4}, // dominated by {2,3}
		[]float64{4, 1},
		[]float64{2, 3}, // duplicate
	)
	for i := range pts {
		pts[i].Config = Config{i}
	}
	var a Archive
	a.Merge(pts)
	var tags []int
	for _, p := range a.Points() {
		tags = append(tags, p.Config[0])
	}
	if want := []int{0, 1, 3}; !reflect.DeepEqual(tags, want) {
		t.Fatalf("front tags = %v, want %v (first duplicate kept)", tags, want)
	}
	// Infeasible points never enter the front.
	var b Archive
	b.Merge(append(pts, Point{Objs: Objectives{0, 0}, Feasible: false}))
	if b.Len() != 3 {
		t.Errorf("infeasible point entered the front")
	}
}

// A merged front must be mutually non-dominated and a fixed point of Merge.
func TestNonDominatedProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 2 + r.Intn(2)
		pts := make([]Point, 1+r.Intn(40))
		for i := range pts {
			objs := make(Objectives, m)
			for d := range objs {
				objs[d] = float64(r.Intn(10))
			}
			pts[i] = Point{Objs: objs, Feasible: r.Intn(5) > 0}
		}
		var a Archive
		a.Merge(pts)
		front := a.Points()
		for i, p := range front {
			for j, q := range front {
				if i != j && (Dominates(p.Objs, q.Objs) || equalObjs(p.Objs, q.Objs)) {
					return false
				}
			}
		}
		var again Archive
		again.Merge(front)
		return reflect.DeepEqual(again.Points(), front)
	}
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(v []reflect.Value, r *rand.Rand) {
			v[0] = reflect.ValueOf(r.Int63())
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Merging one batch must keep the same points as the naive per-point
// archive fed the same sequence.
func TestArchiveMatchesBatchFilter(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 2 + r.Intn(2)
		all := make([]Point, 1+r.Intn(60))
		var naive naiveArchive
		for i := range all {
			objs := make(Objectives, m)
			for d := range objs {
				objs[d] = float64(r.Intn(8))
			}
			all[i] = Point{Config: Config{i}, Objs: objs, Feasible: true}
			naive.Add(all[i])
		}
		var arch Archive
		arch.Merge(all)
		if arch.Len() != len(naive.points) {
			return false
		}
		byTag := map[int]Objectives{}
		for _, p := range naive.points {
			byTag[p.Config[0]] = p.Objs
		}
		for _, p := range arch.Points() {
			if q, ok := byTag[p.Config[0]]; !ok || !equalObjs(q, p.Objs) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(v []reflect.Value, r *rand.Rand) {
			v[0] = reflect.ValueOf(r.Int63())
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// gridPoint draws a point whose objectives come from a small grid, so
// equal vectors and ties on every axis are common.
func gridPoint(r *rand.Rand, m, tag int) Point {
	objs := make(Objectives, m)
	for d := range objs {
		objs[d] = float64(r.Intn(5))
	}
	return Point{Config: Config{tag}, Objs: objs, Feasible: r.Intn(6) > 0}
}

// sameArchive reports the first difference between two archives' points:
// identity (Config tag), order and objective bits.
func sameArchive(got, want []Point) string {
	if len(got) != len(want) {
		return fmt.Sprintf("size %d, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Config[0] != w.Config[0] || len(g.Objs) != len(w.Objs) {
			return fmt.Sprintf("point %d is %v%v, want %v%v", i, g.Config, g.Objs, w.Config, w.Objs)
		}
		for d := range g.Objs {
			if math.Float64bits(g.Objs[d]) != math.Float64bits(w.Objs[d]) {
				return fmt.Sprintf("point %d objectives %v, want %v", i, g.Objs, w.Objs)
			}
		}
	}
	return ""
}

// TestArchiveMergeMatchesAdd proves Merge equals Add on each batch point in
// order — retained points, the Config kept for each equal vector, and
// order — for two, three and four objectives, from empty and non-empty
// archives, with infeasible points and duplicate vectors under distinct
// Config tags.
func TestArchiveMergeMatchesAdd(t *testing.T) {
	for trial := 0; trial < 900; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		m := 2 + trial%3
		var merged, added Archive
		tag := 0
		for round := 0; round < 1+r.Intn(4); round++ {
			batch := make([]Point, r.Intn(40))
			for i := range batch {
				batch[i] = gridPoint(r, m, tag)
				tag++
			}
			merged.Merge(batch)
			for _, p := range batch {
				added.Add(p)
			}
			if diff := sameArchive(merged.Points(), added.Points()); diff != "" {
				t.Fatalf("trial %d (M=%d) round %d: %s", trial, m, round, diff)
			}
		}
	}
}

// FuzzArchiveMerge checks Merge against sequential Add on byte-derived
// inputs: byte 0 picks the dimension (2, 3 or 4), byte 1 how many of the
// points are added to both archives before the merge, and every following
// group of M+1 bytes is one point — a feasibility byte, then objectives on
// a grid that includes negative zero.
func FuzzArchiveMerge(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 2})
	f.Add([]byte{1, 2, 1, 0, 1, 2, 1, 2, 1, 0, 1, 1, 1, 1, 0, 5, 5, 5})
	f.Add([]byte{2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 0, 1, 6, 0, 3, 1, 0, 6, 3, 1, 3, 3, 3, 1, 6, 6, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		m := 2 + int(data[0]%3)
		pre := int(data[1])
		var pts []Point
		for rest := data[2:]; len(rest) > m; rest = rest[m+1:] {
			objs := make(Objectives, m)
			for d := range objs {
				v := float64(rest[1+d] % 7)
				if v == 6 {
					v = math.Copysign(0, -1)
				}
				objs[d] = v
			}
			pts = append(pts, Point{Config: Config{len(pts)}, Objs: objs, Feasible: rest[0]%5 != 0})
		}
		if pre > len(pts) {
			pre = len(pts)
		}
		var merged, added Archive
		for _, p := range pts[:pre] {
			merged.Add(p)
			added.Add(p)
		}
		merged.Merge(pts[pre:])
		for _, p := range pts[pre:] {
			added.Add(p)
		}
		if diff := sameArchive(merged.Points(), added.Points()); diff != "" {
			t.Fatal(diff)
		}
	})
}

func TestArchiveRejectsDuplicatesAndDominated(t *testing.T) {
	var a Archive
	if !a.Add(Point{Objs: Objectives{1, 1}, Feasible: true}) {
		t.Error("first point rejected")
	}
	if a.Add(Point{Objs: Objectives{1, 1}, Feasible: true}) {
		t.Error("duplicate accepted")
	}
	if a.Add(Point{Objs: Objectives{2, 2}, Feasible: true}) {
		t.Error("dominated point accepted")
	}
	if a.Add(Point{Objs: Objectives{0, 0}, Feasible: false}) {
		t.Error("infeasible point accepted")
	}
	if !a.Add(Point{Objs: Objectives{0, 2}, Feasible: true}) {
		t.Error("incomparable point rejected")
	}
	if a.Len() != 2 {
		t.Errorf("archive size = %d, want 2", a.Len())
	}
	// A dominating point evicts.
	if !a.Add(Point{Objs: Objectives{0, 0}, Feasible: true}) {
		t.Error("dominating point rejected")
	}
	if a.Len() != 1 {
		t.Errorf("archive size after eviction = %d, want 1", a.Len())
	}
}

func TestCrowdingDistance(t *testing.T) {
	front := mkPoints(
		[]float64{0, 4},
		[]float64{1, 2},
		[]float64{2, 1},
		[]float64{4, 0},
	)
	d := CrowdingDistance(front)
	if !math.IsInf(d[0], 1) || !math.IsInf(d[3], 1) {
		t.Error("boundary points must have infinite crowding")
	}
	if d[1] <= 0 || d[2] <= 0 || math.IsInf(d[1], 1) {
		t.Errorf("interior crowding: %v", d)
	}
	if got := CrowdingDistance(nil); len(got) != 0 {
		t.Error("empty front")
	}
	// Identical objective values: no NaNs.
	same := mkPoints([]float64{1, 1}, []float64{1, 1}, []float64{1, 1})
	for _, v := range CrowdingDistance(same) {
		if math.IsNaN(v) {
			t.Error("NaN crowding on degenerate front")
		}
	}
}

// TestCrowdingDistanceEdgeCases covers the degenerate fronts the
// randomized equivalence tests may sample thinly: duplicate objective
// vectors, singleton fronts, all-equal fronts, and two-member fronts.
func TestCrowdingDistanceEdgeCases(t *testing.T) {
	// Duplicate vectors: deterministic tie-break means the first duplicate
	// takes the boundary +Inf and later ones get finite (zero-width)
	// contributions — crucially, never NaN, and stable across calls.
	dup := mkPoints([]float64{0, 4}, []float64{2, 2}, []float64{2, 2}, []float64{4, 0})
	d1 := CrowdingDistance(dup)
	d2 := CrowdingDistance(dup)
	for i := range d1 {
		if math.IsNaN(d1[i]) {
			t.Errorf("duplicate front produced NaN at %d: %v", i, d1)
		}
		if d1[i] != d2[i] {
			t.Errorf("crowding not deterministic on duplicates: %v vs %v", d1, d2)
		}
	}
	if !math.IsInf(d1[0], 1) || !math.IsInf(d1[3], 1) {
		t.Errorf("boundary points lost +Inf: %v", d1)
	}

	// Single-member front: the lone point is both boundaries.
	single := CrowdingDistance(mkPoints([]float64{3, 7}))
	if len(single) != 1 || !math.IsInf(single[0], 1) {
		t.Errorf("singleton crowding = %v, want [+Inf]", single)
	}

	// All-equal objectives: every point is a boundary candidate in a
	// zero-width range; no NaNs, no negative distances.
	same := mkPoints([]float64{1, 1}, []float64{1, 1}, []float64{1, 1}, []float64{1, 1})
	for i, v := range CrowdingDistance(same) {
		if math.IsNaN(v) || v < 0 {
			t.Errorf("all-equal front: dist[%d] = %v", i, v)
		}
	}

	// Two members: both are boundaries in every objective.
	pair := CrowdingDistance(mkPoints([]float64{0, 1}, []float64{1, 0}))
	if !math.IsInf(pair[0], 1) || !math.IsInf(pair[1], 1) {
		t.Errorf("two-member front crowding = %v, want both +Inf", pair)
	}

	// Three objectives with one degenerate (constant) dimension: the
	// constant axis contributes nothing, the others still accumulate.
	tri := CrowdingDistance(mkPoints(
		[]float64{0, 4, 5}, []float64{2, 2, 5}, []float64{4, 0, 5},
	))
	if !math.IsInf(tri[0], 1) || !math.IsInf(tri[2], 1) || tri[1] <= 0 || math.IsInf(tri[1], 1) {
		t.Errorf("degenerate-axis crowding = %v", tri)
	}
}

func TestHypervolume2D(t *testing.T) {
	front := mkPoints([]float64{1, 3}, []float64{2, 2}, []float64{3, 1})
	// Reference (4,4): union of boxes = 3·1 + 1·... compute: sweep:
	// (4-1)(4-3)=3, then (4-2)(3-2)=2, then (4-3)(2-1)=1 → 6.
	got := Hypervolume(front, Objectives{4, 4})
	if math.Abs(got-6) > 1e-12 {
		t.Errorf("HV = %g, want 6", got)
	}
	// Dominated point adds nothing.
	withDominated := append(front, Point{Objs: Objectives{3, 3}, Feasible: true})
	if got2 := Hypervolume(withDominated, Objectives{4, 4}); math.Abs(got2-6) > 1e-12 {
		t.Errorf("HV with dominated point = %g, want 6", got2)
	}
	// Points outside the reference box are ignored.
	outside := append(front, Point{Objs: Objectives{5, 0}, Feasible: true})
	if got3 := Hypervolume(outside, Objectives{4, 4}); math.Abs(got3-6) > 1e-12 {
		t.Errorf("HV with outside point = %g, want 6", got3)
	}
	if got4 := Hypervolume(nil, Objectives{4, 4}); got4 != 0 {
		t.Errorf("empty HV = %g", got4)
	}
}

func TestHypervolume3D(t *testing.T) {
	// A single point: box volume.
	one := mkPoints([]float64{1, 1, 1})
	if got := Hypervolume(one, Objectives{2, 2, 2}); math.Abs(got-1) > 1e-12 {
		t.Errorf("HV = %g, want 1", got)
	}
	// Two incomparable points: inclusion-exclusion by hand.
	// a=(0,2,0), b=(2,0,2), ref=(3,3,3):
	// vol(a)=3·1·3=9, vol(b)=1·3·1=3, overlap=(3-2)(3-2)(3-2)=1 → 11.
	two := mkPoints([]float64{0, 2, 0}, []float64{2, 0, 2})
	if got := Hypervolume(two, Objectives{3, 3, 3}); math.Abs(got-11) > 1e-12 {
		t.Errorf("HV = %g, want 11", got)
	}
}

// hv3Reference is the per-slice hypervolume hv3 replaced: it re-sorts and
// re-allocates a 2-D slice at every z level. It is kept as the oracle the
// incremental staircase must match bit for bit.
func hv3Reference(pts []Objectives, ref Objectives) float64 {
	sort.Slice(pts, func(a, b int) bool { return pts[a][2] < pts[b][2] })
	var hv float64
	for i := 0; i < len(pts); i++ {
		zTop := ref[2]
		if i+1 < len(pts) {
			zTop = pts[i+1][2]
		}
		dz := zTop - pts[i][2]
		if dz <= 0 {
			continue
		}
		slice := make([]Objectives, 0, i+1)
		for j := 0; j <= i; j++ {
			slice = append(slice, Objectives{pts[j][0], pts[j][1]})
		}
		hv += hv2(slice, Objectives{ref[0], ref[1]}) * dz
	}
	return hv
}

// TestHypervolume3DMatchesReference compares Hypervolume with the
// per-slice reference by float bits on 1200 fronts: grid-valued sets
// (ties on every axis, duplicates, points on the reference planes) and
// continuous ones, each with dominated points and points outside the
// reference box.
func TestHypervolume3DMatchesReference(t *testing.T) {
	ref := Objectives{5, 5, 5}
	for trial := 0; trial < 1200; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		grid := trial%2 == 0
		pts := make([]Point, r.Intn(60))
		var inside []Objectives
		for i := range pts {
			objs := make(Objectives, 3)
			for d := range objs {
				if grid {
					objs[d] = float64(r.Intn(7))
				} else {
					objs[d] = r.Float64() * 5.5
				}
			}
			pts[i] = Point{Objs: objs, Feasible: true}
			if objs[0] <= ref[0] && objs[1] <= ref[1] && objs[2] <= ref[2] {
				inside = append(inside, objs)
			}
		}
		got := Hypervolume(pts, ref)
		want := 0.0
		if len(inside) > 0 {
			want = hv3Reference(inside, ref)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: Hypervolume = %v (%#x), reference %v (%#x)\npoints: %v",
				trial, got, math.Float64bits(got), want, math.Float64bits(want), inside)
		}
	}
}

// Hypervolume grows (weakly) when points are added.
func TestHypervolumeMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ref := Objectives{10, 10}
		var pts []Point
		prev := 0.0
		for i := 0; i < 20; i++ {
			pts = append(pts, Point{
				Objs:     Objectives{r.Float64() * 10, r.Float64() * 10},
				Feasible: true,
			})
			hv := Hypervolume(pts, ref)
			if hv < prev-1e-12 {
				return false
			}
			prev = hv
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 100,
		Values: func(v []reflect.Value, r *rand.Rand) {
			v[0] = reflect.ValueOf(r.Int63())
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestHypervolumePanicsOnHighDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("4-objective HV should panic")
		}
	}()
	Hypervolume(mkPoints([]float64{1, 1, 1, 1}), Objectives{2, 2, 2, 2})
}

func TestCoverage(t *testing.T) {
	a := mkPoints([]float64{1, 1})
	b := mkPoints([]float64{2, 2}, []float64{0, 5})
	if got := Coverage(a, b); got != 0.5 {
		t.Errorf("C(a,b) = %g, want 0.5", got)
	}
	if got := Coverage(b, a); got != 0 {
		t.Errorf("C(b,a) = %g, want 0", got)
	}
	if got := Coverage(a, nil); got != 0 {
		t.Errorf("C(a,∅) = %g, want 0", got)
	}
	// Equal points count as covered.
	if got := Coverage(a, mkPoints([]float64{1, 1})); got != 1 {
		t.Errorf("C(a,a) = %g, want 1", got)
	}
}
