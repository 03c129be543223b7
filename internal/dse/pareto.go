package dse

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// Objectives is a vector of objective values, all minimized.
type Objectives []float64

// Evaluator maps configurations to objective vectors. Implementations
// return an error satisfying core.IsInfeasible semantics (any error is
// treated as a constraint violation by the search algorithms; hard
// evaluator bugs should panic instead).
type Evaluator interface {
	Evaluate(c Config) (Objectives, error)
	NumObjectives() int
}

// Point is an evaluated design point.
type Point struct {
	Config   Config
	Objs     Objectives
	Feasible bool
}

// Dominates reports whether a Pareto-dominates b: no worse in every
// objective and strictly better in at least one. Both vectors must have
// equal length.
func Dominates(a, b Objectives) bool {
	better := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			better = true
		}
	}
	return better
}

// dominatesConstrained applies Deb's constrained dominance: feasible beats
// infeasible; two feasibles compare by Pareto dominance; two infeasibles
// are incomparable (the evaluator provides no violation magnitude).
func dominatesConstrained(a, b Point) bool {
	switch {
	case a.Feasible && !b.Feasible:
		return true
	case !a.Feasible:
		return false
	default:
		return Dominates(a.Objs, b.Objs)
	}
}

func equalObjs(a, b Objectives) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Archive maintains a non-dominated set incrementally, stored sorted by
// lexicographic objective order. Keeping the front sorted is what makes
// maintenance cheap: only lexicographic predecessors can dominate a
// candidate and only successors can be dominated by it. Add inserts one
// point: in O(log N + k) comparisons for k evictions with two objectives
// (where sortedness forces the second objective strictly decreasing), by
// scanning one pruned side each with more. Merge folds a whole batch in
// with one O((N+B) log(N+B)) sweep for two and three objectives, on
// buffers the archive keeps, so a steady-state Merge allocates nothing.
type Archive struct {
	points []Point
	spare  []Point   // Merge's output buffer; swapped with points
	order  []int     // Merge's batch permutation
	stairs staircase // Merge's sweep state
}

// Add inserts p if no archived point dominates it, evicting points it
// dominates. A point whose objective vector already sits in the archive is
// rejected (the first occurrence wins). It reports whether p was inserted.
func (a *Archive) Add(p Point) bool {
	if !p.Feasible {
		return false
	}
	n := len(a.points)
	// First index whose objectives are lexicographically >= p's.
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if lexCompare(a.points[mid].Objs, p.Objs) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	i := lo
	if i < n && equalObjs(a.points[i].Objs, p.Objs) {
		return false
	}
	if len(p.Objs) == 2 {
		// Mutual non-dominance plus lex order force the first objective
		// strictly increasing and the second strictly decreasing, so the
		// predecessor carries the minimum f2 left of p (O(1) dominance
		// check) and p's victims are a contiguous run after it.
		if i > 0 && a.points[i-1].Objs[1] <= p.Objs[1] {
			return false
		}
		j := i
		for j < n && a.points[j].Objs[1] >= p.Objs[1] {
			j++
		}
		switch {
		case j == i: // nobody evicted: open a slot
			a.points = append(a.points, Point{})
			copy(a.points[i+1:], a.points[i:])
		case j > i+1: // several evicted: close the gap
			a.points = append(a.points[:i+1], a.points[j:]...)
		}
		a.points[i] = p
		return true
	}
	// M >= 3: a lexicographic successor can never dominate p and a
	// predecessor can never be dominated by p, so dominators live strictly
	// left of i and victims strictly right.
	for k := 0; k < i; k++ {
		if Dominates(a.points[k].Objs, p.Objs) {
			return false
		}
	}
	w := i
	for k := i; k < n; k++ {
		if Dominates(p.Objs, a.points[k].Objs) {
			continue
		}
		a.points[w] = a.points[k]
		w++
	}
	a.points = append(a.points[:w], Point{})
	copy(a.points[i+1:], a.points[i:])
	a.points[i] = p
	return true
}

// Merge adds every point of batch, with exactly the outcome of calling Add
// on each in order: the same retained points, the first occurrence of an
// equal objective vector kept (an archived one before any batch point),
// the same lexicographic order. For two and three objectives it sweeps
// archive ∪ batch once in lexicographic order, the batch sorted with ties
// broken by batch index: a swept point survives exactly when the
// staircase of the survivors' (f2, f3) projections (f2 alone with two
// objectives) does not cover it. Other dimensions, and points of mixed
// dimension, Add point by point. batch must not alias the archive's
// storage, including a Points slice taken before an earlier Merge.
func (a *Archive) Merge(batch []Point) {
	a.order = a.order[:0]
	for i := range batch {
		if batch[i].Feasible {
			a.order = append(a.order, i)
		}
	}
	if len(a.order) == 0 {
		return
	}
	m := len(batch[a.order[0]].Objs)
	sweep := m == 2 || m == 3
	for _, i := range a.order {
		sweep = sweep && len(batch[i].Objs) == m
	}
	for i := range a.points {
		sweep = sweep && len(a.points[i].Objs) == m
	}
	if !sweep {
		for _, i := range a.order {
			a.Add(batch[i])
		}
		return
	}
	slices.SortFunc(a.order, func(i, j int) int {
		if c := lexCompare(batch[i].Objs, batch[j].Objs); c != 0 {
			return c
		}
		return i - j
	})
	out := a.spare[:0]
	a.stairs.reset()
	i, k := 0, 0
	for i < len(a.points) || k < len(a.order) {
		var p *Point
		if k == len(a.order) || i < len(a.points) && lexCompare(a.points[i].Objs, batch[a.order[k]].Objs) <= 0 {
			p = &a.points[i]
			i++
		} else {
			p = &batch[a.order[k]]
			k++
		}
		var y float64
		if m == 3 {
			y = p.Objs[2]
		}
		if a.stairs.insert(p.Objs[1], y) {
			out = append(out, *p)
		}
	}
	a.spare, a.points = a.points[:0], out
}

// reset empties the archive, keeping its buffers.
func (a *Archive) reset() { a.points = a.points[:0] }

// lexCompare compares objective vectors lexicographically.
func lexCompare(x, y Objectives) int {
	for i := range x {
		if x[i] != y[i] {
			if x[i] < y[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Points returns the archived front in lexicographic objective order. The
// slice is the archive's own storage: callers must not modify it, and it
// is valid until the next Add or Merge. The sorted order is part of the
// determinism story: the archived set never depends on insertion order,
// and now neither does its presentation.
func (a *Archive) Points() []Point { return a.points }

// Len returns the archive size.
func (a *Archive) Len() int { return len(a.points) }

// CrowdingDistance computes the NSGA-II crowding distance of each point in
// a front. Boundary points get +Inf. The per-objective orderings break
// value ties by front position, so the result is a deterministic function
// of the front even when objective vectors repeat.
func CrowdingDistance(front []Point) []float64 {
	dist := make([]float64, len(front))
	crowdingInto(front, dist, make([]int, len(front)))
	return dist
}

// Hypervolume computes the dominated hypervolume of a front with respect
// to a reference point; points outside the reference box are ignored.
// Supported dimensions: 2 and 3, covering the paper's tradeoff plots. Two
// objectives cost one O(N log N) sweep; three sweep 2-D slices along the
// third objective over an incrementally maintained staircase, O(N·S) for a
// front whose slices have at most S non-dominated points.
func Hypervolume(front []Point, ref Objectives) float64 {
	pts := make([]Objectives, 0, len(front))
	for _, p := range front {
		inside := true
		for i := range ref {
			if p.Objs[i] > ref[i] {
				inside = false
				break
			}
		}
		if inside {
			pts = append(pts, p.Objs)
		}
	}
	if len(pts) == 0 {
		return 0
	}
	switch len(ref) {
	case 2:
		return hv2(pts, ref)
	case 3:
		return hv3(pts, ref)
	default:
		panic("dse: Hypervolume supports 2 or 3 objectives")
	}
}

// hv2 sweeps points by the first objective.
func hv2(pts []Objectives, ref Objectives) float64 {
	sort.Slice(pts, func(a, b int) bool {
		if pts[a][0] != pts[b][0] {
			return pts[a][0] < pts[b][0]
		}
		return pts[a][1] < pts[b][1]
	})
	var hv float64
	bestY := ref[1]
	for _, p := range pts {
		if p[1] < bestY {
			hv += (ref[0] - p[0]) * (bestY - p[1])
			bestY = p[1]
		}
	}
	return hv
}

// hv3 slices along the third objective: between consecutive z values the
// dominated area is the 2-D hypervolume of the points with z below the
// slice. The slice's staircase grows by one point per z level and its area
// is summed exactly as hv2 would sum that slice, so the total matches the
// per-slice recomputation bit for bit in O(N log N + N·S) for S stairs.
func hv3(pts []Objectives, ref Objectives) float64 {
	slices.SortFunc(pts, func(a, b Objectives) int { return cmp.Compare(a[2], b[2]) })
	st := staircase{x: make([]float64, 0, len(pts)), y: make([]float64, 0, len(pts))}
	var hv float64
	for i, p := range pts {
		st.insert(p[0], p[1])
		zTop := ref[2]
		if i+1 < len(pts) {
			zTop = pts[i+1][2]
		}
		if dz := zTop - p[2]; dz > 0 {
			hv += st.area(ref[0], ref[1]) * dz
		}
	}
	return hv
}

// Coverage returns the fraction of points in b that are weakly dominated
// by (or equal to) some point of a — Zitzler's C(A, B) metric, used for
// the Fig. 5 claim that the two-objective baseline covers only a small
// fraction of the full model's tradeoffs.
func Coverage(a, b []Point) float64 {
	if len(b) == 0 {
		return 0
	}
	covered := 0
	for _, q := range b {
		for _, p := range a {
			if Dominates(p.Objs, q.Objs) || equalObjs(p.Objs, q.Objs) {
				covered++
				break
			}
		}
	}
	return float64(covered) / float64(len(b))
}

// BalancedPoint returns the front point minimizing the normalized
// euclidean distance to the per-objective minima — the "decent everything"
// pick a deployment would make from a Pareto front. Ties resolve to the
// earliest point, so the choice is deterministic for a deterministic
// front. It panics on an empty front.
func BalancedPoint(front []Point) Point {
	if len(front) == 0 {
		panic("dse: BalancedPoint on empty front")
	}
	m := len(front[0].Objs)
	lo := append([]float64(nil), front[0].Objs...)
	hi := append([]float64(nil), front[0].Objs...)
	for _, p := range front {
		for j, o := range p.Objs {
			if o < lo[j] {
				lo[j] = o
			}
			if o > hi[j] {
				hi[j] = o
			}
		}
	}
	best, bestD := 0, math.Inf(1)
	for i, p := range front {
		var d float64
		for j := 0; j < m && j < len(p.Objs); j++ {
			if hi[j] == lo[j] {
				continue
			}
			n := (p.Objs[j] - lo[j]) / (hi[j] - lo[j])
			d += n * n
		}
		if d < bestD {
			best, bestD = i, d
		}
	}
	return front[best]
}
