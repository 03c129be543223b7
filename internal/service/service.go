// Package service turns the scenario × algorithm exploration stack into a
// job-oriented, multi-tenant runtime: callers submit exploration jobs
// (scenario name, algorithm, seed, budget), a bounded-worker Manager
// schedules them concurrently over the compiled evaluation pipeline, and
// each job exposes lifecycle state, streaming progress, periodic
// checkpoints and — once finished — a versioned Pareto front in the
// content-addressed result Store.
//
// The paper's pitch is that the analytical model makes design-space
// exploration cheap enough to be interactive; this package is the layer
// that makes it *shared*: many consumers exploring many scenarios against
// one process, with the same determinism contract the algorithms
// guarantee below — a seeded job returns a bit-identical front no matter
// how many other jobs the service is running, because jobs share nothing
// mutable but the memo-safe code paths proven scheduling-independent in
// internal/dse.
//
// # Lifecycle and supervision
//
// The job state machine is
//
//	queued → running → done | failed | timed_out | cancelled
//	             ↘ queued (retry edge: attempt failed, retries left)
//
// Every attempt runs under a panic-recovering supervisor: a panic in an
// evaluator (or any hook on the search goroutine) fails the attempt with
// the captured stack instead of killing the process. A failed attempt
// with retries left (Spec.MaxRetries) re-enters queued, waits a capped
// exponential backoff with jitter (JobInfo.NextRetryAt), and runs again —
// resuming from the latest in-memory checkpoint when the job checkpoints
// (Spec.CheckpointEvery > 0), restarting from scratch otherwise; both
// paths produce a front bit-identical to an uninterrupted run, because
// resume restores the exact trajectory and a fresh run is deterministic
// in the seed. JobInfo reports Attempts, the last Error, and NextRetryAt
// while a retry is pending.
//
// Cancellation is cooperative through context.Context: the search
// algorithms check it at generation/segment/batch boundaries, so a
// cancelled job stops within one boundary and keeps the partial front it
// explored. Spec.DeadlineSeconds bounds the job's total running time
// (across retries) the same way: the deadline cancels at the next search
// boundary and the job lands in timed_out with its partial front.
// Neither cancelled nor timed_out jobs retry — both are verdicts, not
// faults.
//
// Jobs that request checkpointing produce dse.Snapshot checkpoints at
// search boundaries; a killed job resubmitted with Spec.Resume set to its
// last snapshot replays the uninterrupted run's exact trajectory and
// finishes with a bit-identical front. Durable checkpoint files
// (Config.CheckpointDir) are checksummed and double-buffered: a file
// torn by a crash mid-write fails verification on LoadSnapshot and
// recovery falls back to the previous checkpoint instead of resuming
// from garbage. Checkpoint and result-store write failures degrade
// gracefully — logged, never fatal to the job — so a full disk costs
// durability, not the exploration budget already spent. The
// internal/service/faultinject package provides the injection points the
// chaos test suite drives all of this with.
//
// # Island decomposition and drain
//
// Spec.Islands >= 2 runs one nsga2/mosa search as supervised worker
// islands (internal/service/island): lock-step rounds with deterministic
// ring migration, per-island checkpoints at every migration boundary,
// and failover by replay — an island panic, a killed worker process
// (Config.IslandExec), a lost executor or a stalled round
// (Config.IslandStallTimeout) costs at most one round, and the merged
// front stays bit-identical to an undisturbed run. Island jobs publish
// "island" events instead of "progress", surface per-island supervision
// state in JobInfo.Islands, and have no single resumable snapshot
// (Checkpoint returns ErrNoSnapshot); when the island supervisor itself
// gives up, the manager's retry edge resumes from the coordinator's
// composite checkpoint.
//
// Spec.ResumeJob resumes a prior job — plain or island — server-side
// from its durable checkpoint files under Config.CheckpointDir, keyed by
// the old job's ID: the cross-process-restart recovery path, no
// client-held snapshot required. A missing, both-slots-corrupt, or
// algorithm-mismatched checkpoint fails the job loudly rather than
// silently starting over. Manager.Drain is the graceful half of that
// story: it rejects new submissions with ErrDraining, cancels running
// jobs at their next boundary so their checkpoints land, and returns
// once every job has settled — wsn-serve wires it to SIGINT/SIGTERM.
//
// # Result store and warm starts
//
// Every finished job's front is archived in the Store under a content
// key — ResultKey hashes (scenario fingerprint, objective set,
// algorithm) — with an LRU bound and, when Config.ResultDir is set,
// durable persistence across process restarts (append-only index plus
// atomic per-result files). A Spec with WarmStart "auto" seeds its
// search from the archive: the exact content match if one exists,
// otherwise fronts of same-family sibling scenarios (transfer seeding);
// an explicit version ("v17") pins the source. Seeds reach the
// algorithms through dse.Options.SeedPoints, so a warm-started job stays
// a pure function of (spec, store contents) — determinism is preserved,
// just relative to a richer input. JobInfo.WarmStart reports what was
// actually used.
//
// # Observability
//
// Every job carries a telemetry sampler fed by dse.Options.Stats at the
// same search boundaries that serve progress, checkpoints and
// cancellation. The sampling contract: boundaries are free-running and
// can fire thousands of times per second, so the sampler records at
// most one sample per Config.ObsSampleInterval (default 250ms) — plus
// the final boundary, always, so even a sub-interval job leaves one
// complete sample — and the turned-away common case costs one mutex and
// a clock read, zero allocations (pinned by TestSamplerBoundaryZeroAlloc).
// Each sample captures search health (step, evaluations, rate, front
// size, hypervolume against a running-nadir reference, memo-cache
// hits/lookups, attempt, island round/restarts) plus process runtime
// stats, as int64 columns.
//
// Samples land in a per-job in-memory ring (the recent window behind
// Manager.JobStats and GET /v1/jobs/{id}/stats) and, when Config.ObsDir
// is set, in an append-only binary stream <obs-dir>/<jobID>.obs in the
// internal/obs format, decodable live or post-mortem with cmd/wsn-stats.
// File I/O runs on a per-job writer goroutine behind a bounded queue —
// an obs file that cannot be opened, written, or kept up with degrades
// that job to ring-only telemetry with one log line, never failing or
// slowing the search. Manager.WriteMetrics aggregates process-wide
// counters (job lifecycle, queue depth, per-scenario evaluations, store
// size/evictions, SSE subscribers, island rounds/restarts, obs volume)
// in Prometheus text form, served at GET /metrics by wsn-serve.
//
// # HTTP surface
//
// NewHandler exposes the Manager as a JSON-over-HTTP API (see http.go for
// the route table and error-code map), including an SSE stream of per-job
// progress events, and Client wraps that API for Go callers — decoding
// structured errors into typed *APIError values and draining the Page
// envelopes that all list endpoints return. cmd/wsn-serve is the
// production entry point; examples/service walks the whole flow.
package service

import (
	"fmt"
	"time"

	"wsndse/internal/dse"
	"wsndse/internal/scenario"
	"wsndse/internal/service/island"
)

// Algorithms the service accepts, mapping 1:1 onto the search entry
// points in internal/dse.
const (
	AlgoNSGA2      = "nsga2"
	AlgoMOSA       = "mosa"
	AlgoExhaustive = "exhaustive"
	AlgoRandom     = "random"
)

// Spec is the client-facing job description. Seed and Workers live here —
// not in the per-algorithm configs — because they are service-level
// concerns: Seed is the determinism key results are stored under, and
// Workers is the evaluation parallelism the scheduler budgets for
// (default 1, so a loaded service degrades to fair round-robin instead of
// thrashing; the per-job cap keeps one tenant from monopolizing the
// machine). Seed/Workers fields inside NSGA2/MOSA are overridden.
type Spec struct {
	Scenario  string `json:"scenario"`
	Algorithm string `json:"algorithm"`
	Seed      int64  `json:"seed,omitempty"`
	Workers   int    `json:"workers,omitempty"`

	// Exactly the matching algorithm's config is consulted; both are
	// optional (zero configs select the dse defaults).
	NSGA2 *dse.NSGA2Config `json:"nsga2,omitempty"`
	MOSA  *dse.MOSAConfig  `json:"mosa,omitempty"`

	// Budget is the random-search draw budget (default 4096).
	Budget int `json:"budget,omitempty"`
	// MaxPoints guards exhaustive sweeps (default 200000): a space larger
	// than this is rejected rather than enumerated.
	MaxPoints int `json:"max_points,omitempty"`

	// WarmStart seeds the initial population from prior fronts in the
	// result store: "" or "off" runs cold (the default — bit-identical
	// to pre-warm-start behavior), "auto" resolves the scenario's
	// content key (fingerprint, objectives, algorithm) plus near-miss
	// family siblings, and an explicit version ("17" or "v17") seeds
	// from exactly that stored front. Applies to nsga2 and mosa;
	// exhaustive and random ignore it. Ignored when Resume is set (the
	// snapshot already fixes the trajectory). JobInfo.WarmStart reports
	// what was actually seeded.
	WarmStart string `json:"warm_start,omitempty"`

	// MaxRetries is how many times a failed attempt (panic or error —
	// not cancellation, not a deadline) is automatically retried, with
	// capped exponential backoff between attempts. Retries resume from
	// the job's latest checkpoint when CheckpointEvery > 0 and restart
	// from scratch otherwise; either way the final front is bit-identical
	// to an uninterrupted run. Default 0 (fail on the first error),
	// capped at 16.
	MaxRetries int `json:"max_retries,omitempty"`

	// DeadlineSeconds bounds the job's total running time across all
	// attempts (queue wait excluded). The deadline cancels cooperatively
	// at the next search boundary; the job ends timed_out, keeping the
	// partial front explored so far. 0 means no deadline.
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`

	// CheckpointEvery asks for a dse.Snapshot every N search boundaries
	// (generations / chain segments / evaluation batches); 0 disables.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// Resume restarts from a snapshot produced by a previous job with the
	// same scenario, algorithm and algorithm config. The resumed job's
	// front is bit-identical to an uninterrupted run.
	Resume *dse.Snapshot `json:"resume,omitempty"`
	// ResumeJob resumes from the durable checkpoint files a previous job
	// (same scenario, algorithm, config and island layout) left under the
	// server's checkpoint directory — the restart path that needs no
	// snapshot round-trip through the client. Requires Config.CheckpointDir;
	// mutually exclusive with Resume and WarmStart. Corrupt or missing
	// checkpoints fail the job with a diagnosable error rather than
	// silently restarting from scratch.
	ResumeJob string `json:"resume_job,omitempty"`

	// Islands partitions the search across N supervised islands with
	// deterministic ring migration (see internal/service/island): 0 or 1
	// selects the plain single-search path, 2..16 the island coordinator.
	// nsga2 and mosa only. The merged front is a pure function of
	// (spec, islands, migration_interval, migrants) — island crashes,
	// executor loss and coordinator restarts never change it. Island jobs
	// checkpoint at every migration boundary (checkpoint_every must stay
	// 0), publish "island" events instead of "progress", and report
	// per-island supervision state in JobInfo.Islands.
	Islands int `json:"islands,omitempty"`
	// MigrationInterval is the migration period in search boundaries
	// (0 selects the island default, 5). Only valid with Islands >= 2.
	MigrationInterval int `json:"migration_interval,omitempty"`
	// Migrants is how many front members each island sends its ring
	// successor per boundary (0 selects the default, 4; capped at 64).
	// Only valid with Islands >= 2.
	Migrants int `json:"migrants,omitempty"`
}

// maxEvalWorkers caps per-job evaluation parallelism.
const maxEvalWorkers = 64

// maxIslands caps Spec.Islands, and maxMigrants Spec.Migrants: island
// decomposition is a handful-of-partitions technique — a thousand-island
// request is a typo or an attack, not a plan.
const (
	maxIslands  = 16
	maxMigrants = 64
)

// normalize fills the defaults validation and execution agree on.
func (s Spec) normalize() Spec {
	if s.Workers <= 0 {
		s.Workers = 1
	}
	if s.Budget == 0 {
		s.Budget = 4096
	}
	if s.MaxPoints == 0 {
		s.MaxPoints = 200000
	}
	return s
}

// Validate rejects a malformed spec before a worker is committed to it:
// unknown scenario or algorithm, out-of-domain algorithm configs,
// out-of-range budgets, or a resume snapshot from a different algorithm.
func (s Spec) Validate() error {
	if s.Scenario == "" {
		return fmt.Errorf("service: spec has no scenario")
	}
	if !scenario.Has(s.Scenario) {
		return fmt.Errorf("service: unknown scenario %q", s.Scenario)
	}
	switch s.Algorithm {
	case AlgoNSGA2:
		if s.NSGA2 != nil {
			if err := s.NSGA2.Validate(); err != nil {
				return fmt.Errorf("service: %w", err)
			}
		}
	case AlgoMOSA:
		if s.MOSA != nil {
			if err := s.MOSA.Validate(); err != nil {
				return fmt.Errorf("service: %w", err)
			}
		}
	case AlgoExhaustive, AlgoRandom:
		// Budget/MaxPoints domain-checked below.
	default:
		return fmt.Errorf("service: unknown algorithm %q (want %s|%s|%s|%s)",
			s.Algorithm, AlgoNSGA2, AlgoMOSA, AlgoExhaustive, AlgoRandom)
	}
	if s.Workers < 0 || s.Workers > maxEvalWorkers {
		return fmt.Errorf("service: workers %d out of [0,%d]", s.Workers, maxEvalWorkers)
	}
	if s.Budget < 0 {
		return fmt.Errorf("service: negative random-search budget %d", s.Budget)
	}
	if s.MaxPoints < 0 {
		return fmt.Errorf("service: negative exhaustive point limit %d", s.MaxPoints)
	}
	if s.CheckpointEvery < 0 {
		return fmt.Errorf("service: negative checkpoint interval %d", s.CheckpointEvery)
	}
	if s.MaxRetries < 0 || s.MaxRetries > maxJobRetries {
		return fmt.Errorf("service: max_retries %d out of [0,%d]", s.MaxRetries, maxJobRetries)
	}
	if s.DeadlineSeconds < 0 {
		return fmt.Errorf("service: negative deadline_seconds %g", s.DeadlineSeconds)
	}
	if s.Resume != nil && s.Resume.Algorithm != s.Algorithm {
		return fmt.Errorf("service: resume snapshot is a %s run, spec wants %s", s.Resume.Algorithm, s.Algorithm)
	}
	if !validWarmStart(s.WarmStart) {
		return fmt.Errorf("service: malformed warm_start %q (want off|auto|<version>)", s.WarmStart)
	}
	if s.ResumeJob != "" {
		if s.Resume != nil {
			return fmt.Errorf("service: resume and resume_job are mutually exclusive")
		}
		if warmStartRequested(s.WarmStart) {
			return fmt.Errorf("service: resume_job and warm_start are mutually exclusive (the checkpoint already fixes the trajectory)")
		}
	}
	if s.Islands < 0 || s.Islands > maxIslands {
		return fmt.Errorf("service: islands %d out of [0,%d]", s.Islands, maxIslands)
	}
	if s.Islands >= 2 {
		if s.Algorithm != AlgoNSGA2 && s.Algorithm != AlgoMOSA {
			return fmt.Errorf("service: algorithm %s does not support island decomposition", s.Algorithm)
		}
		if s.Resume != nil {
			return fmt.Errorf("service: island jobs resume via resume_job, not a single-search snapshot")
		}
		if warmStartRequested(s.WarmStart) {
			return fmt.Errorf("service: warm_start is not supported for island jobs")
		}
		if s.CheckpointEvery != 0 {
			return fmt.Errorf("service: island jobs checkpoint at every migration boundary; checkpoint_every must be 0")
		}
	} else {
		if s.MigrationInterval != 0 {
			return fmt.Errorf("service: migration_interval needs islands >= 2")
		}
		if s.Migrants != 0 {
			return fmt.Errorf("service: migrants needs islands >= 2")
		}
	}
	if s.MigrationInterval < 0 {
		return fmt.Errorf("service: negative migration_interval %d", s.MigrationInterval)
	}
	if s.Migrants < 0 || s.Migrants > maxMigrants {
		return fmt.Errorf("service: migrants %d out of [0,%d]", s.Migrants, maxMigrants)
	}
	return nil
}

// Status is the job lifecycle state.
type Status string

const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusTimedOut  Status = "timed_out"
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the job has stopped moving. A queued status
// on a job with Attempts > 0 is the retry edge — the job failed and is
// waiting out its backoff — not a terminal state.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusTimedOut || s == StatusCancelled
}

// ProgressInfo is the service-level progress view: the dse boundary
// counters plus wall-clock throughput (which belongs here, not in dse —
// timing is observational and never feeds back into results).
type ProgressInfo struct {
	Step        int     `json:"step"`
	TotalSteps  int     `json:"total_steps"`
	Evaluated   int     `json:"evaluated"`
	Infeasible  int     `json:"infeasible"`
	FrontSize   int     `json:"front_size"`
	ElapsedSec  float64 `json:"elapsed_sec"`
	EvalsPerSec float64 `json:"evals_per_sec"`
}

// JobInfo is the externally visible job state. Spec is echoed with Resume
// nulled (snapshots can be large; ResumedFromStep records that and where
// the job resumed).
type JobInfo struct {
	ID              string `json:"id"`
	Spec            Spec   `json:"spec"`
	ResumedFromStep int    `json:"resumed_from_step,omitempty"`
	Status          Status `json:"status"`
	// Error is the most recent attempt's failure (panic value + stack for
	// supervised panics). It persists through the retry wait — a queued
	// job with a non-empty Error is on the retry edge — and clears if a
	// later attempt succeeds.
	Error string `json:"error,omitempty"`
	// Attempts counts attempts started; 1 for a job that never failed.
	Attempts int `json:"attempts,omitempty"`
	// NextRetryAt is when the next attempt starts, set only while the job
	// waits out its retry backoff.
	NextRetryAt *time.Time    `json:"next_retry_at,omitempty"`
	CreatedAt   time.Time     `json:"created_at"`
	StartedAt   *time.Time    `json:"started_at,omitempty"`
	FinishedAt  *time.Time    `json:"finished_at,omitempty"`
	Progress    *ProgressInfo `json:"progress,omitempty"`
	// Islands is the per-island supervision state of an island job
	// (Spec.Islands >= 2): which executor last ran each island, the latest
	// boundary it passed, and its attempt/restart counts. Nil for
	// single-search jobs.
	Islands       []island.Status `json:"islands,omitempty"`
	ResultVersion int             `json:"result_version,omitempty"`
	// WarmStart reports how the initial population was seeded; nil for
	// cold runs (including warm_start: auto against an empty store).
	WarmStart *WarmStartInfo `json:"warm_start,omitempty"`
}

// FrontPoint is one Pareto-front point in wire form.
type FrontPoint struct {
	Config []int     `json:"config"`
	Objs   []float64 `json:"objs"`
}

// frontPoints converts a dse front (feasible by construction).
func frontPoints(front []dse.Point) []FrontPoint {
	out := make([]FrontPoint, len(front))
	for i, p := range front {
		out[i] = FrontPoint{Config: append([]int(nil), p.Config...), Objs: append([]float64(nil), p.Objs...)}
	}
	return out
}

// FrontResponse is the GET /v1/jobs/{id}/front payload: the front over
// everything the job evaluated, with enough identity to reproduce it.
type FrontResponse struct {
	JobID      string       `json:"job_id"`
	Status     Status       `json:"status"`
	Scenario   string       `json:"scenario"`
	Algorithm  string       `json:"algorithm"`
	Seed       int64        `json:"seed"`
	Evaluated  int          `json:"evaluated"`
	Infeasible int          `json:"infeasible"`
	Front      []FrontPoint `json:"front"`
}
