package main

import (
	"fmt"
	"time"

	"wsndse/internal/casestudy"
	"wsndse/internal/dse"
	"wsndse/internal/experiments"
)

// fig5Seeds is how many Fig5 calls, each with its own seed, make one
// pass of paper-fig5: enough that the mix of seeds, whose calls differ
// in cost, barely moves the pass time.
const fig5Seeds = 16

// fig5Pop and fig5Gen are Fig5's default search budget, spelled out so
// the workload's size does not follow a change of defaults.
const (
	fig5Pop = 96
	fig5Gen = 60
)

// fig5Load is paper-fig5: repeated experiments.Fig5 calls — the only
// path through the casestudy reference evaluator.
type fig5Load struct {
	seeds []int64
	ref   dse.Evaluator // compiled case-study evaluator, for verify
}

func setupFig5(o options, _ string) (instance, error) {
	l := &fig5Load{}
	for i := 0; i < fig5Seeds; i++ {
		l.seeds = append(l.seeds, jobSeed(o.seed, "paper-fig5", i))
	}
	compiled, err := casestudy.NewProblem(casestudy.DefaultCalibration()).Compile()
	if err != nil {
		return nil, err
	}
	l.ref = compiled.Evaluator()
	// Warm-up: one call at a seed the passes do not use.
	if _, err := runFig5(jobSeed(o.seed, "paper-fig5/warm-up", 0)); err != nil {
		return nil, err
	}
	return l, nil
}

func fig5Config(seed int64) experiments.Fig5Config {
	return experiments.Fig5Config{PopulationSize: fig5Pop, Generations: fig5Gen, Seed: seed, RunMOSA: true, Workers: 1}
}

// runFig5 runs one Fig. 5 experiment and its paper-claim check.
func runFig5(seed int64) (*experiments.Fig5Result, error) {
	r, err := experiments.Fig5(fig5Config(seed))
	if err != nil {
		return nil, err
	}
	if err := r.Check(); err != nil {
		return nil, err
	}
	return r, nil
}

func fig5Digest(seed int64, full, baseline, mosa []dse.Point, evalsFull, evalsBaseline int) string {
	d := newDigester()
	d.str("fig5")
	d.int(seed)
	d.int(int64(evalsFull))
	d.int(int64(evalsBaseline))
	d.points(full)
	d.points(baseline)
	d.points(mosa)
	return d.sum()
}

func (l *fig5Load) specs() int { return len(l.seeds) }

// pass runs one Fig5 call per seed, in seed order.
func (l *fig5Load) pass(n int, _ string, tr *tracer) (passResult, error) {
	start, cpuStart := time.Now(), cpuTime()
	jobs := make([]jobResult, len(l.seeds))
	for i, seed := range l.seeds {
		j := &jobs[i]
		j.spec, j.id = i, fmt.Sprintf("p%d.fig5-%d", n, i)
		s := time.Now()
		r, err := runFig5(seed)
		j.latency = time.Since(s)
		if err != nil {
			j.err = err
			continue
		}
		j.evaluated = r.EvalsFull + r.EvalsBaseline
		j.digest = fig5Digest(seed, r.FullFront, r.BaselineFront, r.MOSAFront, r.EvalsFull, r.EvalsBaseline)
		j.payload = r
		if tr != nil {
			tr.shadowFig5(j.id, fig5Config(seed), s, j.latency, j.digest)
		}
	}
	return passResult{wall: time.Since(start), cpu: cpuTime() - cpuStart, jobs: jobs}, nil
}

// verify re-evaluates the full-model and MOSA fronts, which the
// reference evaluator produced, on the compiled case-study evaluator:
// the two must agree bit for bit.
func (l *fig5Load) verify(j *jobResult) error {
	r := j.payload.(*experiments.Fig5Result)
	for _, front := range [][]dse.Point{r.FullFront, r.MOSAFront} {
		for i, p := range front {
			objs, err := l.ref.Evaluate(p.Config)
			if err != nil {
				return fmt.Errorf("front point %d: compiled evaluator: %v", i, err)
			}
			if !sameBits(objs, p.Objs) {
				return fmt.Errorf("front point %d: objectives %v, compiled evaluator gives %v", i, p.Objs, objs)
			}
		}
	}
	return nil
}

func (l *fig5Load) reference(string) ([]string, error) { return nil, nil }
