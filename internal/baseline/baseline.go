// Package baseline reimplements the comparator of the paper's Figure 5: a
// state-of-the-art energy/delay model in the spirit of Kumar et al. [26]
// ("End-to-End Energy Management in Networked Real-Time Embedded
// Systems").
//
// The baseline sees the same design space and computes the same energy and
// delay the proposed model does — it is not a strawman — but it is
// application-blind: compression appears only through its effect on the
// transmitted data rate, and no quality metric exists. A DSE driven by it
// therefore optimizes over two objectives and recovers only the
// energy/delay silhouette of the true three-dimensional tradeoff surface;
// the paper reports it finds only ≈7 % of the full model's Pareto points.
package baseline

import (
	"fmt"

	"wsndse/internal/dse"
)

// Model is anything that builds a full three-objective evaluator: a
// scenario.Problem (the reference evaluator) or its scenario.Compiled
// pipeline (bit-identical, allocation-free).
type Model interface {
	Evaluator() dse.Evaluator
}

// New returns the energy/delay-only view of a model's design space: its
// full evaluator with the quality objective dropped.
func New(m Model) *Projection {
	return Project(m.Evaluator(), 0, 2)
}

// Projection exposes a subset of a full evaluator's objectives — the
// application-blind energy/delay silhouette generalized beyond the case
// study, so any scenario's three-objective evaluator can be compared
// against its own baseline view.
type Projection struct {
	Full dse.Evaluator
	Idx  []int
}

// Project wraps a full evaluator, keeping only the objectives at the given
// indices (in that order).
func Project(full dse.Evaluator, idx ...int) *Projection {
	return &Projection{Full: full, Idx: idx}
}

// NumObjectives returns the projected dimension.
func (p *Projection) NumObjectives() int { return len(p.Idx) }

// Evaluate runs the full model and drops the hidden objectives.
func (p *Projection) Evaluate(c dse.Config) (dse.Objectives, error) {
	objs, err := p.Full.Evaluate(c)
	if err != nil {
		return nil, err
	}
	out := make(dse.Objectives, len(p.Idx))
	for i, j := range p.Idx {
		if j < 0 || j >= len(objs) {
			return nil, fmt.Errorf("baseline: projection index %d out of range for %d objectives", j, len(objs))
		}
		out[i] = objs[j]
	}
	return out, nil
}

// Lift re-evaluates a 2-objective front under the full 3-metric model so
// it can be compared against the proposed model's front in the common
// objective space (this is how Fig. 5 plots both sets on the same axes).
func Lift(m Model, front []dse.Point) ([]dse.Point, error) {
	full := m.Evaluator()
	out := make([]dse.Point, 0, len(front))
	for _, pt := range front {
		objs, err := full.Evaluate(pt.Config)
		if err != nil {
			continue // a config feasible for 2 objectives is feasible for 3; be safe anyway
		}
		out = append(out, dse.Point{Config: pt.Config, Objs: objs, Feasible: true})
	}
	return out, nil
}
