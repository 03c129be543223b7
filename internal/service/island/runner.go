package island

import (
	"context"
	"errors"
	"fmt"

	"wsndse/internal/dse"
	"wsndse/internal/service/faultinject"
)

// Job is the immutable description of one island-model search: the
// scenario and algorithm every island runs, the base seed the per-island
// seeds fork from, and the evaluation worker count each island uses.
// It crosses the process boundary verbatim when islands run as child
// worker processes, so it carries everything a worker needs to rebuild
// the compiled evaluation pipeline on its own.
type Job struct {
	JobID     string           `json:"job_id"`
	Scenario  string           `json:"scenario"`
	Algorithm string           `json:"algorithm"` // "nsga2" or "mosa"
	NSGA2     *dse.NSGA2Config `json:"nsga2,omitempty"`
	MOSA      *dse.MOSAConfig  `json:"mosa,omitempty"`
	Seed      int64            `json:"seed"`
	Workers   int              `json:"workers,omitempty"` // evaluation workers per island
}

// steps returns the job's total boundary count (generations for NSGA-II,
// chain segments for MOSA) — the axis the migration schedule divides.
func (j Job) steps() int {
	switch j.Algorithm {
	case "nsga2":
		cfg := dse.NSGA2Config{}
		if j.NSGA2 != nil {
			cfg = *j.NSGA2
		}
		return cfg.Steps()
	case "mosa":
		cfg := dse.MOSAConfig{}
		if j.MOSA != nil {
			cfg = *j.MOSA
		}
		return cfg.Steps()
	default:
		return 0
	}
}

// Request asks a Runner to advance one island by one round: run from
// Resume (nil: a fresh start) to the StopAfter boundary (0: to
// completion). Seed is the island's forked seed; Executor identifies the
// supervision slot running the request, threaded through so injected
// faults can target an executor rather than an island.
type Request struct {
	Job       Job           `json:"job"`
	Island    int           `json:"island"`
	Executor  int           `json:"executor"`
	Seed      int64         `json:"seed"`
	StopAfter int           `json:"stop_after,omitempty"`
	Resume    *dse.Snapshot `json:"resume,omitempty"`
}

// Result is the wire form of a finished island's dse.Result.
type Result struct {
	Front      []dse.SnapPoint `json:"front"`
	Evaluated  int             `json:"evaluated"`
	Infeasible int             `json:"infeasible"`
}

// Response is one round's outcome: a paused round carries the boundary
// Snapshot (Result nil), a completed run carries the final Result
// (Snapshot nil).
type Response struct {
	Snapshot *dse.Snapshot `json:"snapshot,omitempty"`
	Result   *Result       `json:"result,omitempty"`
}

// Heartbeat is called by a Runner at every search boundary the island
// passes, from the island's goroutine (or the worker process's relay
// goroutine). The coordinator's stall watchdog feeds on it.
type Heartbeat func(step int)

// Runner executes island rounds. GoRunner runs them on a goroutine in
// this process; ProcRunner delegates to a supervised child worker
// process. Implementations must be safe for concurrent RunRound calls.
type Runner interface {
	RunRound(ctx context.Context, req Request, beat Heartbeat) (*Response, error)
}

// GoRunner runs island rounds in-process against a pre-built space and
// evaluator. The evaluator must be safe for concurrent use when the
// coordinator runs islands on more than one executor (the compiled
// scenario evaluator is; see scenario.Compiled.Evaluator).
//
// Stats, when non-nil, receives every island's per-boundary dse.Stats
// tagged with the island index — the hook the service's telemetry
// sampler attaches to. It is called from executor goroutines
// concurrently, so the sink must be safe for concurrent use. ProcRunner
// intentionally does not forward stats: a worker process's value is
// crash containment, and widening its line protocol with per-boundary
// telemetry would couple the watchdog path to the sampler.
type GoRunner struct {
	Space *dse.Space
	Eval  dse.Evaluator
	Stats func(island int, s dse.Stats)
}

// RunRound implements Runner.
func (g *GoRunner) RunRound(ctx context.Context, req Request, beat Heartbeat) (*Response, error) {
	opts := dse.Options{
		Context:   ctx,
		StopAfter: req.StopAfter,
		Stats: func(s dse.Stats) {
			faultinject.IslandBoundary(req.Job.JobID, req.Island, req.Executor, s.Step)
			if beat != nil {
				beat(s.Step)
			}
			if g.Stats != nil {
				g.Stats(req.Island, s)
			}
		},
		Resume: req.Resume,
	}
	var snap *dse.Snapshot
	opts.Checkpoint = func(s *dse.Snapshot) error { snap = s; return nil }

	res, err := runAlgorithm(g.Space, g.Eval, req, opts)
	switch {
	case errors.Is(err, dse.ErrPaused):
		if snap == nil {
			return nil, fmt.Errorf("island %d paused without a snapshot", req.Island)
		}
		return &Response{Snapshot: snap}, nil
	case err != nil:
		return nil, err
	default:
		return &Response{Result: &Result{
			Front:      frontToWire(res.Front),
			Evaluated:  res.Evaluated,
			Infeasible: res.Infeasible,
		}}, nil
	}
}

// runAlgorithm dispatches one island run with the island's forked seed.
func runAlgorithm(space *dse.Space, eval dse.Evaluator, req Request, opts dse.Options) (*dse.Result, error) {
	switch req.Job.Algorithm {
	case "nsga2":
		cfg := dse.NSGA2Config{}
		if req.Job.NSGA2 != nil {
			cfg = *req.Job.NSGA2
		}
		cfg.Seed, cfg.Workers = req.Seed, req.Job.Workers
		return dse.NSGA2Opts(space, eval, cfg, opts)
	case "mosa":
		cfg := dse.MOSAConfig{}
		if req.Job.MOSA != nil {
			cfg = *req.Job.MOSA
		}
		cfg.Seed, cfg.Workers = req.Seed, req.Job.Workers
		return dse.MOSAOpts(space, eval, cfg, opts)
	default:
		return nil, fmt.Errorf("island: algorithm %q does not support island decomposition", req.Job.Algorithm)
	}
}

func frontToWire(front []dse.Point) []dse.SnapPoint {
	out := make([]dse.SnapPoint, len(front))
	for i, p := range front {
		out[i] = dse.SnapPoint{
			Config:   p.Config.Clone(),
			Objs:     append(dse.Objectives(nil), p.Objs...),
			Feasible: p.Feasible,
		}
	}
	return out
}

// ProcLine is one newline-delimited JSON message on a worker process's
// stdout: "beat" lines feed the watchdog, exactly one "done" or "error"
// line ends the round.
type ProcLine struct {
	Type     string    `json:"type"` // "beat" | "done" | "error"
	Step     int       `json:"step,omitempty"`
	Response *Response `json:"response,omitempty"`
	Error    string    `json:"error,omitempty"`
}
