package dse

import (
	"cmp"
	"math"
	"slices"
)

// This file holds the fast non-dominated sorting machinery behind the
// NSGA-II generation loop: an ENS/Jensen-style sort that is O(N log N) for
// the two-objective case (the paper's baseline view) and an ENS-BS sort
// with a lexicographic prefilter for three and more objectives, which for
// exactly three objectives tests front dominance against a per-front
// staircase in O(log N), both running entirely on reusable workspace
// buffers so steady-state generations allocate nothing.
//
// Equivalence with the O(MN²) reference implementation
// (rankAndCrowdNaive) is part of the contract, not an aspiration: both
// produce the canonical non-dominated peeling ranks under constrained
// dominance, order every front's members by ascending population index,
// and run the identical crowding arithmetic, so ranks match exactly and
// crowding distances match bit for bit. TestFastSortMatchesNaive checks
// this on randomized populations.

// testNaiveRank routes sortWorkspace.rankAndCrowd through the O(MN²)
// reference implementation. Tests flip it to prove the fast and naive
// search internals produce bit-identical NSGA-II runs.
var testNaiveRank = false

// sortWorkspace owns every buffer the fast non-dominated sort needs, so a
// search algorithm that keeps one workspace per run ranks populations of
// any (stable) size without allocating after the first generation.
type sortWorkspace struct {
	ranks  []int
	crowd  []float64
	order  []int       // feasible population indices in lexicographic order
	minf2  []float64   // two-objective sweep: min f2 per front, non-decreasing
	fronts [][]int     // per-front member indices (ENS state, then crowding buckets)
	stairs []staircase // three-objective ENS state: per-front (f2, f3) staircase
	nf     int         // fronts in use
	member []Point     // one front's points, gathered for crowding
	dist   []float64   // crowding scratch
	idx    []int       // crowding scratch
}

// rankAndCrowd computes the non-domination rank (0 = best) and crowding
// distance of each population member under constrained dominance: feasible
// points rank by Pareto dominance among themselves and every infeasible
// point lands together in one final front (they are mutually incomparable
// and dominated by every feasible point). The returned slices are
// workspace-owned and valid until the next call.
func (ws *sortWorkspace) rankAndCrowd(pop []Point) (ranks []int, crowd []float64) {
	if testNaiveRank {
		return rankAndCrowdNaive(pop)
	}
	n := len(pop)
	ws.ranks = growInts(ws.ranks, n)
	ws.crowd = growFloats(ws.crowd, n)
	if n == 0 {
		return ws.ranks, ws.crowd
	}

	ws.order = ws.order[:0]
	infeasible := 0
	for i := range pop {
		if pop[i].Feasible {
			ws.order = append(ws.order, i)
		} else {
			infeasible++
		}
	}
	slices.SortFunc(ws.order, func(i, j int) int {
		if c := lexCompare(pop[i].Objs, pop[j].Objs); c != 0 {
			return c
		}
		return i - j
	})

	maxRank := -1
	if len(ws.order) > 0 {
		if len(pop[ws.order[0]].Objs) == 2 {
			maxRank = ws.sweep2(pop)
		} else {
			maxRank = ws.ensBS(pop)
		}
	}
	nFronts := maxRank + 1
	if infeasible > 0 {
		for i := range pop {
			if !pop[i].Feasible {
				ws.ranks[i] = nFronts
			}
		}
		nFronts++
	}

	// Re-bucket each front's members in ascending population index order —
	// the canonical order crowding is defined over.
	ws.ensureFronts(nFronts)
	for i := 0; i < n; i++ {
		r := ws.ranks[i]
		ws.fronts[r] = append(ws.fronts[r], i)
	}
	for f := 0; f < nFronts; f++ {
		members := ws.fronts[f]
		ws.member = ws.member[:0]
		for _, i := range members {
			ws.member = append(ws.member, pop[i])
		}
		ws.dist = growFloats(ws.dist, len(members))
		ws.idx = growInts(ws.idx, len(members))
		crowdingInto(ws.member, ws.dist, ws.idx)
		for k, i := range members {
			ws.crowd[i] = ws.dist[k]
		}
	}
	return ws.ranks, ws.crowd
}

// sweep2 is Jensen's two-objective non-dominated sort: process points in
// lexicographic order and binary-search the non-decreasing per-front
// minimum-f2 array for the first front that does not dominate the point —
// the longest-increasing-subsequence patience trick, O(N log N) total.
// Exact duplicates inherit the representative's front (equal vectors never
// dominate each other). Returns the highest feasible rank.
func (ws *sortWorkspace) sweep2(pop []Point) int {
	ws.minf2 = ws.minf2[:0]
	for k, i := range ws.order {
		if k > 0 {
			if j := ws.order[k-1]; equalObjs(pop[j].Objs, pop[i].Objs) {
				ws.ranks[i] = ws.ranks[j]
				continue
			}
		}
		f2 := pop[i].Objs[1]
		// A lex-earlier distinct point dominates iff its f2 <= ours, so
		// front r dominates iff minf2[r] <= f2; place at the first front
		// whose minimum exceeds f2.
		lo, hi := 0, len(ws.minf2)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if ws.minf2[mid] > f2 {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		if lo == len(ws.minf2) {
			ws.minf2 = append(ws.minf2, f2)
		} else {
			ws.minf2[lo] = f2
		}
		ws.ranks[i] = lo
	}
	return len(ws.minf2) - 1
}

// ensBS is the efficient non-dominated sort with binary search over fronts
// for three and more objectives: points arrive in lexicographic order, so
// only already-placed points can dominate a newcomer, domination of a
// lex-earlier distinct point reduces to componentwise <=, and the fronts
// that dominate a point always form a prefix. With three objectives the
// first objective is already ordered, so a front dominates a point exactly
// when the staircase of its members' (f2, f3) projections covers the
// point's; more objectives scan the front's members. Exact duplicates
// inherit the representative's front and are not re-added as members.
// Returns the highest feasible rank.
func (ws *sortWorkspace) ensBS(pop []Point) int {
	three := len(pop[ws.order[0]].Objs) == 3
	ws.nf = 0
	for k, i := range ws.order {
		if k > 0 {
			if j := ws.order[k-1]; equalObjs(pop[j].Objs, pop[i].Objs) {
				ws.ranks[i] = ws.ranks[j]
				continue
			}
		}
		objs := pop[i].Objs
		lo, hi := 0, ws.nf
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			var dom bool
			if three {
				dom = ws.stairs[mid].covers(objs[1], objs[2])
			} else {
				dom = ws.frontDominates(pop, mid, objs)
			}
			if dom {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == ws.nf {
			if ws.nf == len(ws.fronts) {
				ws.fronts = append(ws.fronts, nil)
			}
			if ws.nf == len(ws.stairs) {
				ws.stairs = append(ws.stairs, staircase{})
			}
			ws.fronts[ws.nf] = ws.fronts[ws.nf][:0]
			ws.stairs[ws.nf].reset()
			ws.nf++
		}
		if three {
			ws.stairs[lo].insert(objs[1], objs[2])
		} else {
			ws.fronts[lo] = append(ws.fronts[lo], i)
		}
		ws.ranks[i] = lo
	}
	return ws.nf - 1
}

// frontDominates reports whether any member of front f dominates objs.
// Members are scanned newest-first: the most recently placed points are
// closest in lexicographic order and the likeliest dominators.
func (ws *sortWorkspace) frontDominates(pop []Point, f int, objs Objectives) bool {
	members := ws.fronts[f]
	for k := len(members) - 1; k >= 0; k-- {
		m := pop[members[k]].Objs
		dom := true
		for d := range m {
			if m[d] > objs[d] {
				dom = false
				break
			}
		}
		if dom {
			return true
		}
	}
	return false
}

// ensureFronts resets the first n front buckets to zero length, keeping
// their backing arrays.
func (ws *sortWorkspace) ensureFronts(n int) {
	for len(ws.fronts) < n {
		ws.fronts = append(ws.fronts, nil)
	}
	for f := 0; f < n; f++ {
		ws.fronts[f] = ws.fronts[f][:0]
	}
	ws.nf = n
}

// crowdingInto is the canonical crowding computation: NSGA-II crowding
// distance over front, written into dist, with the per-objective orderings
// fully determined (objective value, then front position) so equal inputs
// always produce bit-equal outputs regardless of sort algorithm. idx is
// scratch of len(front).
func crowdingInto(front []Point, dist []float64, idx []int) {
	n := len(front)
	for i := range dist[:n] {
		dist[i] = 0
	}
	if n == 0 {
		return
	}
	m := len(front[0].Objs)
	for obj := 0; obj < m; obj++ {
		for i := range idx {
			idx[i] = i
		}
		slices.SortFunc(idx, func(i, j int) int {
			if c := cmp.Compare(front[i].Objs[obj], front[j].Objs[obj]); c != 0 {
				return c
			}
			return i - j
		})
		lo := front[idx[0]].Objs[obj]
		hi := front[idx[n-1]].Objs[obj]
		dist[idx[0]] = math.Inf(1)
		dist[idx[n-1]] = math.Inf(1)
		if hi == lo {
			continue
		}
		for k := 1; k < n-1; k++ {
			dist[idx[k]] += (front[idx[k+1]].Objs[obj] - front[idx[k-1]].Objs[obj]) / (hi - lo)
		}
	}
}

// rankAndCrowdNaive is the O(MN²) reference: pairwise constrained-dominance
// counting with front peeling. It allocates freely and exists so the fast
// sort has something to be proven equivalent against.
func rankAndCrowdNaive(pop []Point) (ranks []int, crowd []float64) {
	n := len(pop)
	ranks = make([]int, n)
	crowd = make([]float64, n)

	dominatedBy := make([][]int, n) // dominatedBy[i]: indices i dominates
	count := make([]int, n)         // how many dominate i
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if dominatesConstrained(pop[i], pop[j]) {
				dominatedBy[i] = append(dominatedBy[i], j)
			} else if dominatesConstrained(pop[j], pop[i]) {
				count[i]++
			}
		}
	}
	var front []int
	for i := 0; i < n; i++ {
		if count[i] == 0 {
			ranks[i] = 0
			front = append(front, i)
		}
	}
	nFronts := 0
	for len(front) > 0 {
		nFronts++
		var next []int
		for _, i := range front {
			for _, j := range dominatedBy[i] {
				count[j]--
				if count[j] == 0 {
					ranks[j] = nFronts
					next = append(next, j)
				}
			}
		}
		front = next
	}
	// Crowding per front, members in ascending population index order —
	// the same canonical order the fast sort uses.
	for f := 0; f < nFronts; f++ {
		var members []Point
		var where []int
		for i := 0; i < n; i++ {
			if ranks[i] == f {
				members = append(members, pop[i])
				where = append(where, i)
			}
		}
		d := CrowdingDistance(members)
		for k, i := range where {
			crowd[i] = d[k]
		}
	}
	return ranks, crowd
}

// growInts returns s resized to n, reallocating only on capacity growth.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// growFloats returns s resized to n, reallocating only on capacity growth.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
