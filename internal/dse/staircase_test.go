package dse

import (
	"math/rand"
	"testing"
)

// TestStaircase drives covers and insert against a brute-force point set
// on a small grid, so equal x, equal y and repeated points are common.
// After every insert the stairs must be exactly the set's minimal points
// under weak dominance, x strictly ascending and y strictly descending.
func TestStaircase(t *testing.T) {
	for trial := 0; trial < 600; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		var s staircase
		var all [][2]float64
		for i := 0; i < 1+r.Intn(60); i++ {
			x, y := float64(r.Intn(8)), float64(r.Intn(8))
			covered := false
			for _, q := range all {
				if q[0] <= x && q[1] <= y {
					covered = true
				}
			}
			if got := s.covers(x, y); got != covered {
				t.Fatalf("trial %d: covers(%v, %v) = %v, brute force %v; stairs x=%v y=%v", trial, x, y, got, covered, s.x, s.y)
			}
			if got := s.insert(x, y); got == covered {
				t.Fatalf("trial %d: insert(%v, %v) = %v with covered = %v", trial, x, y, got, covered)
			}
			all = append(all, [2]float64{x, y})

			var minimal [][2]float64
			for _, p := range all {
				dominated := false
				for _, q := range all {
					if q != p && q[0] <= p[0] && q[1] <= p[1] {
						dominated = true
					}
				}
				dup := false
				for _, m := range minimal {
					dup = dup || m == p
				}
				if !dominated && !dup {
					minimal = append(minimal, p)
				}
			}
			if len(s.x) != len(minimal) || len(s.y) != len(s.x) {
				t.Fatalf("trial %d: %d stairs, %d minimal points %v", trial, len(s.x), len(minimal), minimal)
			}
			for k := range s.x {
				if k > 0 && (s.x[k-1] >= s.x[k] || s.y[k-1] <= s.y[k]) {
					t.Fatalf("trial %d: stairs out of order: x=%v y=%v", trial, s.x, s.y)
				}
				found := false
				for _, m := range minimal {
					found = found || m == [2]float64{s.x[k], s.y[k]}
				}
				if !found {
					t.Fatalf("trial %d: stair (%v, %v) is not a minimal point of %v", trial, s.x[k], s.y[k], all)
				}
			}
		}
	}
}
