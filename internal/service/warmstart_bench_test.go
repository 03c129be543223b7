package service

import (
	"context"
	"fmt"
	"testing"

	"wsndse/internal/casestudy"
	"wsndse/internal/dse"
	"wsndse/internal/scenario"
)

// BenchmarkWarmStartSeeding measures what transfer seeding actually buys:
// generations until the front reaches 95% of a converged reference
// hypervolume, cold versus seeded from a family sibling's archived front.
// Two chipset-sweep members play both roles — telosb seeded from micaz's
// front and vice versa — through the real ResolveWarmStart path, so the
// number reflects the service's near-miss lookup, not an idealized seed
// list. Lower gens_to_target is better; the wall-clock per op is dominated
// by the search itself and carries no signal.
func BenchmarkWarmStartSeeding(b *testing.B) {
	members := []string{
		registerSweepMember(b, "telosb"),
		registerSweepMember(b, "micaz"),
	}
	const (
		pop     = 24
		maxGens = 60
		refSeed = 7
		runSeed = 21
	)

	type compiledMember struct {
		sc    scenario.Scenario
		space *dse.Space
		eval  dse.Evaluator
		ref   dse.Objectives // hypervolume reference point
		front []dse.Point    // converged reference front
	}
	compile := func(name string) *compiledMember {
		sc, ok := scenario.Lookup(name)
		if !ok {
			b.Fatalf("member %s not registered", name)
		}
		problem, err := scenario.NewProblem(sc, casestudy.DefaultCalibration())
		if err != nil {
			b.Fatal(err)
		}
		compiled, err := problem.Compile()
		if err != nil {
			b.Fatal(err)
		}
		m := &compiledMember{sc: sc, space: problem.Space(), eval: compiled.Evaluator()}
		res, err := dse.NSGA2(m.space, m.eval, dse.NSGA2Config{
			PopulationSize: pop, Generations: maxGens, Seed: refSeed, Workers: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		m.front = res.Front
		m.ref = make(dse.Objectives, len(res.Front[0].Objs))
		for i := range m.ref {
			worst := res.Front[0].Objs[i]
			for _, p := range res.Front {
				if p.Objs[i] > worst {
					worst = p.Objs[i]
				}
			}
			m.ref[i] = worst * 1.1
		}
		return m
	}
	compiledMembers := make(map[string]*compiledMember, len(members))
	for _, name := range members {
		compiledMembers[name] = compile(name)
	}

	// gensToTarget runs a fresh search and reports the generation at which
	// the front's hypervolume first reaches the target (maxGens if never).
	gensToTarget := func(m *compiledMember, seeds []dse.Config, target float64) int {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		gens := maxGens
		opts := dse.Options{
			Context:    ctx,
			SeedPoints: seeds,
			Stats: func(st dse.Stats) {
				if st.Step < gens && dse.Hypervolume(st.Front, m.ref) >= target {
					gens = st.Step
					cancel()
				}
			},
		}
		_, err := dse.NSGA2Opts(m.space, m.eval, dse.NSGA2Config{
			PopulationSize: pop, Generations: maxGens, Seed: runSeed, Workers: 1,
		}, opts)
		if err != nil && ctx.Err() == nil {
			b.Fatal(err)
		}
		return gens
	}

	for i, name := range members {
		m := compiledMembers[name]
		donor := compiledMembers[members[(i+1)%len(members)]]
		target := 0.95 * dse.Hypervolume(m.front, m.ref)

		// The donor's front, archived under the donor's own fingerprint,
		// reaches the target member only through the family near-miss path.
		store, err := NewStore(StoreConfig{})
		if err != nil {
			b.Fatal(err)
		}
		stored := StoredResult{
			Scenario:    donor.sc.Name,
			Algorithm:   AlgoNSGA2,
			Fingerprint: donor.sc.Fingerprint(),
			Objectives:  ObjectivesFull,
		}
		for _, p := range donor.front {
			stored.Front = append(stored.Front, FrontPoint{Config: p.Config, Objs: p.Objs})
		}
		if _, err := store.Put(stored); err != nil {
			b.Fatal(err)
		}
		seeds, info, err := ResolveWarmStart(store, WarmStartAuto,
			m.sc.Fingerprint(), ObjectivesFull, AlgoNSGA2, m.sc.Name, m.space)
		if err != nil {
			b.Fatal(err)
		}
		if info == nil || info.Exact || len(seeds) == 0 {
			b.Fatalf("near-miss resolution for %s: %+v (%d seeds)", name, info, len(seeds))
		}

		short := fmt.Sprintf("member%d", i)
		b.Run(short+"/cold", func(b *testing.B) {
			gens := 0
			for n := 0; n < b.N; n++ {
				gens = gensToTarget(m, nil, target)
			}
			b.ReportMetric(float64(gens), "gens_to_target")
		})
		b.Run(short+"/seeded", func(b *testing.B) {
			gens := 0
			for n := 0; n < b.N; n++ {
				gens = gensToTarget(m, seeds, target)
			}
			b.ReportMetric(float64(gens), "gens_to_target")
		})
	}
}
