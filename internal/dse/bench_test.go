package dse

import (
	"math/rand"
	"testing"
)

// benchPoints draws n feasible points with continuous m-objective vectors
// — a representative mix of dominated and non-dominated inputs for the
// Pareto machinery benchmarks.
func benchPoints(n, m int) []Point {
	r := rand.New(rand.NewSource(int64(n)*31 + int64(m)))
	pts := make([]Point, n)
	for i := range pts {
		objs := make(Objectives, m)
		for d := range objs {
			objs[d] = r.Float64() * 100
		}
		pts[i] = Point{Config: Config{i}, Objs: objs, Feasible: true}
	}
	return pts
}

// benchArchiveInsert times one full insertion sequence — n points into a
// fresh archive — so ns/op covers the incremental maintenance the search
// loops actually pay, evictions and rejections included.
func benchArchiveInsert(b *testing.B, n int) {
	pts := benchPoints(n, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var arch Archive
		for _, p := range pts {
			arch.Add(p)
		}
		if arch.Len() == 0 {
			b.Fatal("empty archive")
		}
	}
}

func BenchmarkArchiveInsert64(b *testing.B)   { benchArchiveInsert(b, 64) }
func BenchmarkArchiveInsert256(b *testing.B)  { benchArchiveInsert(b, 256) }
func BenchmarkArchiveInsert1024(b *testing.B) { benchArchiveInsert(b, 1024) }

// benchRankAndCrowd times one non-dominated sort + crowding pass over a
// 2N union (the environmental-selection workload) of m-objective points
// through the fast workspace sort or the O(MN²) reference.
func benchRankAndCrowd(b *testing.B, n, m int, naive bool) {
	pts := benchPoints(n, m)
	var ws sortWorkspace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if naive {
			rankAndCrowdNaive(pts)
		} else {
			ws.rankAndCrowd(pts)
		}
	}
}

func BenchmarkRankAndCrowd64(b *testing.B)        { benchRankAndCrowd(b, 64, 2, false) }
func BenchmarkRankAndCrowd256(b *testing.B)       { benchRankAndCrowd(b, 256, 2, false) }
func BenchmarkRankAndCrowd1024(b *testing.B)      { benchRankAndCrowd(b, 1024, 2, false) }
func BenchmarkRankAndCrowdNaive256(b *testing.B)  { benchRankAndCrowd(b, 256, 2, true) }
func BenchmarkRankAndCrowdNaive1024(b *testing.B) { benchRankAndCrowd(b, 1024, 2, true) }

// BenchmarkRankAndCrowd3_256 is the production dimension: every registered
// scenario searches three objectives.
func BenchmarkRankAndCrowd3_256(b *testing.B) { benchRankAndCrowd(b, 256, 3, false) }

// benchFront3 draws n mutually non-dominated three-objective points on the
// plane f1 + f2 + f3 = 100.
func benchFront3(n int) []Point {
	r := rand.New(rand.NewSource(int64(n)))
	pts := make([]Point, n)
	for i := range pts {
		u, v := r.Float64(), r.Float64()
		if u+v > 1 {
			u, v = 1-u, 1-v
		}
		pts[i] = Point{Config: Config{i}, Objs: Objectives{100 * u, 100 * v, 100 * (1 - u - v)}, Feasible: true}
	}
	var arch Archive
	arch.Merge(pts)
	return arch.Points()
}

// BenchmarkArchiveMerge3_256 times the NSGA-II archive step at the
// production dimension: a 64-point offspring batch merged into a 256-point
// three-objective front. Batch points scatter around the front's plane, so
// some dominate front members, some are dominated, and some extend the
// front. Each op restores the front by copy first (a 256-point memmove).
func BenchmarkArchiveMerge3_256(b *testing.B) {
	front := benchFront3(256)
	r := rand.New(rand.NewSource(64))
	batches := make([][]Point, 16)
	for k := range batches {
		batch := make([]Point, 64)
		for i := range batch {
			u, v := r.Float64(), r.Float64()
			if u+v > 1 {
				u, v = 1-u, 1-v
			}
			s := 100 + 20*(r.Float64()-0.5)
			batch[i] = Point{Config: Config{1000 + i}, Objs: Objectives{s * u, s * v, s * (1 - u - v)}, Feasible: true}
		}
		batches[k] = batch
	}
	var arch Archive
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arch.points = append(arch.points[:0], front...)
		arch.Merge(batches[i%len(batches)])
		if arch.Len() == 0 {
			b.Fatal("empty archive")
		}
	}
}

// BenchmarkHypervolume3D_256 times the final-boundary hypervolume of a
// 256-point three-objective front.
func BenchmarkHypervolume3D_256(b *testing.B) {
	front := benchFront3(256)
	ref := Objectives{110, 110, 110}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Hypervolume(front, ref) <= 0 {
			b.Fatal("empty hypervolume")
		}
	}
}

// BenchmarkNSGA2Generations256 times seeded NSGA-II at population 256 on a
// cheap analytic evaluator, so the search machinery — tournaments,
// variation, non-dominated sorting, environmental selection, archive — is
// the measured cost rather than the model. Generations per second is the
// headline search-layer throughput.
func BenchmarkNSGA2Generations256(b *testing.B) {
	s := testSpace(64, 16, 16)
	eval := &convexEvaluator{space: s}
	const gens = 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := NSGA2(s, eval, NSGA2Config{
			PopulationSize: 256, Generations: gens, Seed: int64(i + 1), Workers: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Front) == 0 {
			b.Fatal("empty front")
		}
	}
	b.ReportMetric(float64(b.N*gens)/b.Elapsed().Seconds(), "gens/s")
}

// BenchmarkNSGA2Generations256Naive is the same workload with the O(MN²)
// reference sort wired in — the before/after pair for the search-layer
// overhaul's headline claim.
func BenchmarkNSGA2Generations256Naive(b *testing.B) {
	testNaiveRank = true
	defer func() { testNaiveRank = false }()
	s := testSpace(64, 16, 16)
	eval := &convexEvaluator{space: s}
	const gens = 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := NSGA2(s, eval, NSGA2Config{
			PopulationSize: 256, Generations: gens, Seed: int64(i + 1), Workers: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Front) == 0 {
			b.Fatal("empty front")
		}
	}
	b.ReportMetric(float64(b.N*gens)/b.Elapsed().Seconds(), "gens/s")
}
