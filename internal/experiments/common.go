package experiments

import (
	"io"
	"math/rand"

	"wsndse/internal/dse"
	"wsndse/internal/scenario"
	"wsndse/internal/sim"
)

// writer is the rendering sink used by every experiment.
type writer = io.Writer

// runSim is a seam for the simulator call (overridable in tests).
var runSim = sim.Run

// feasibleParams rejection-samples a configuration of problem that eval
// accepts, and decodes it.
func feasibleParams(problem *scenario.Problem, eval dse.Evaluator, rng *rand.Rand) (dse.Config, scenario.Params, error) {
	for {
		c := problem.Space().Random(rng)
		if _, err := eval.Evaluate(c); err == nil {
			params, err := problem.Decode(c)
			return c, params, err
		}
	}
}
