package dse

import "slices"

// staircase is the non-dominated set of 2-D points under weak dominance,
// kept as parallel slices sorted by x ascending, which forces y strictly
// descending. It answers the one question every three-objective Pareto
// sweep in lexicographic order asks: a lexicographically earlier, distinct
// point dominates p exactly when its (f2, f3) projection is componentwise
// <= p's, that is, when the staircase of earlier projections covers p's.
// Both operations binary-search the stairs; insert also shifts the tail.
type staircase struct {
	x, y []float64
}

func (s *staircase) reset() { s.x, s.y = s.x[:0], s.y[:0] }

// upper returns the index of the first stair whose x exceeds x.
func (s *staircase) upper(x float64) int {
	lo, hi := 0, len(s.x)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.x[mid] > x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// covers reports whether some stair (x', y') has x' <= x and y' <= y. The
// last stair at or left of x carries the smallest y among those.
func (s *staircase) covers(x, y float64) bool {
	i := s.upper(x)
	return i > 0 && s.y[i-1] <= y
}

// insert adds (x, y) unless it is covered, dropping the stairs it covers,
// and reports whether it was added.
func (s *staircase) insert(x, y float64) bool {
	i := s.upper(x)
	if i > 0 && s.y[i-1] <= y {
		return false
	}
	lo := i
	if i > 0 && s.x[i-1] == x { // same x with a larger y: covered
		lo = i - 1
	}
	hi := i
	for hi < len(s.y) && s.y[hi] >= y {
		hi++
	}
	s.x = slices.Replace(s.x, lo, hi, x)
	s.y = slices.Replace(s.y, lo, hi, y)
	return true
}

// area is the 2-D hypervolume of the stairs against (rx, ry): hv2's sweep,
// which visits exactly these points in this order with these operands, so
// the two agree bit for bit. Stairs at y >= ry add nothing, as in hv2.
func (s *staircase) area(rx, ry float64) float64 {
	var a float64
	best := ry
	for k, y := range s.y {
		if y < best {
			a += (rx - s.x[k]) * (best - y)
			best = y
		}
	}
	return a
}
