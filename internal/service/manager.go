package service

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"runtime/debug"
	"sync"
	"time"

	"wsndse/internal/casestudy"
	"wsndse/internal/dse"
	"wsndse/internal/scenario"
	"wsndse/internal/service/faultinject"
	"wsndse/internal/service/island"
)

// Config parameterizes a Manager. The zero value is usable: 2 concurrent
// jobs, a 64-deep queue, no checkpoint directory (snapshots are then kept
// in memory only).
type Config struct {
	// Workers is how many jobs run concurrently (job-level parallelism;
	// each job additionally fans its evaluations over Spec.Workers).
	Workers int
	// QueueLimit bounds queued-but-not-started jobs; Submit fails fast
	// with ErrQueueFull beyond it, because an unbounded queue turns
	// overload into silent unbounded latency.
	QueueLimit int
	// CheckpointDir, when set, persists each job's latest snapshot to
	// <dir>/<jobID>.snapshot.json (atomically, via rename) so checkpoints
	// survive the process.
	CheckpointDir string
	// ResultDir, when set, makes the result store durable: finished
	// fronts are written there (atomic files plus an append-only index)
	// and a restarted Manager serves — and warm-starts from — the
	// previous process's results.
	ResultDir string
	// MaxResults bounds the result store (<= 0 selects
	// DefaultMaxResults); beyond it the least-recently-used front is
	// evicted.
	MaxResults int
	// RetryBaseDelay/RetryMaxDelay shape the backoff between retry
	// attempts of failed jobs (zero selects DefaultRetryBaseDelay/
	// DefaultRetryMaxDelay). Tests shrink them.
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// IslandExec, when set, runs each island round of an island job
	// (Spec.Islands >= 2) in a supervised child worker process spawned
	// from this binary (cmd/wsn-island); empty runs islands in-process.
	// Either way the merged front is identical — process isolation buys
	// crash containment, not different results.
	IslandExec string
	// IslandStallTimeout arms the island coordinator's heartbeat watchdog:
	// an island attempt passing no search boundary for this long is
	// cancelled and retried. 0 disables the watchdog.
	IslandStallTimeout time.Duration
	// ObsDir, when set, persists each job's telemetry stream to
	// <dir>/<jobID>.obs in the append-only obs format (decode with
	// wsn-stats or internal/obs). Every job additionally keeps an
	// in-memory recent window serving GET /v1/jobs/{id}/stats, obs dir
	// or not.
	ObsDir string
	// ObsSampleInterval is the minimum spacing between recorded
	// telemetry samples per job (zero selects DefaultObsSampleInterval).
	// The final search boundary is always sampled.
	ObsSampleInterval time.Duration
	// Logf receives the manager's degradation log lines — checkpoint and
	// result-store write failures, retry announcements. Nil selects
	// log.Printf. These are exactly the failures the manager survives
	// rather than surfaces, so the log is their only trace.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 64
	}
	if c.RetryBaseDelay <= 0 {
		c.RetryBaseDelay = DefaultRetryBaseDelay
	}
	if c.RetryMaxDelay <= 0 {
		c.RetryMaxDelay = DefaultRetryMaxDelay
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// Sentinel errors of the job API.
var (
	ErrNotFound    = errors.New("service: no such job")
	ErrQueueFull   = errors.New("service: job queue is full")
	ErrClosed      = errors.New("service: manager is closed")
	ErrDraining    = errors.New("service: manager is draining")
	ErrNotFinished = errors.New("service: job has no front yet")
	ErrNoSnapshot  = errors.New("service: job has no checkpoint")
)

// job is the internal job record. mu guards info/result/snapshot; the
// lifecycle is single-writer (the manager worker running the job) but
// many-reader.
type job struct {
	mu       sync.Mutex
	info     JobInfo
	spec     Spec            // normalized, Resume intact
	ctx      context.Context // derived from the manager root; Cancel fires it
	cancel   context.CancelFunc
	runCtx   context.Context // ctx plus the job deadline; set once by runJob
	hub      *hub
	result   *dse.Result
	snapshot *dse.Snapshot
	// seeds caches the warm-start resolution of the first attempt, so a
	// retried job re-seeds from exactly the same fronts even if the store
	// gained results in between — keeping every attempt's trajectory (and
	// thus the retried job's final front) identical to attempt one's.
	seeds         []dse.Config
	seedsResolved bool
	// islandSnap is the island coordinator's latest composite checkpoint
	// (island jobs only): the resume anchor a retried attempt restarts
	// from, mirroring what snapshot does for single-search jobs.
	islandSnap *dse.IslandSnapshot
	// sampler collects the job's telemetry (ring + optional obs file);
	// created by runJob, nil while the job is still queued. met is the
	// manager's registry, threaded in so setStatus can move the
	// lifecycle gauges without a back-pointer to the Manager.
	sampler *jobSampler
	met     *metrics
	done    chan struct{}
}

// setStatus transitions the lifecycle under the job lock and publishes
// the matching event. It refuses to leave a terminal state.
func (j *job) setStatus(s Status, errMsg string) bool {
	j.mu.Lock()
	if j.info.Status.Terminal() {
		j.mu.Unlock()
		return false
	}
	prior := j.info.Status
	j.info.Status = s
	j.info.Error = errMsg
	now := time.Now()
	switch s {
	case StatusRunning:
		j.info.StartedAt = &now
	case StatusDone, StatusFailed, StatusTimedOut, StatusCancelled:
		j.info.FinishedAt = &now
		j.info.NextRetryAt = nil
	}
	attempt := j.info.Attempts
	j.mu.Unlock()
	// Lifecycle gauges move on the transition edges; the terminal
	// counters fire exactly once per job because terminal states are
	// absorbing (the guard above).
	if j.met != nil {
		if prior == StatusQueued {
			j.met.jobsQueued.Add(-1)
		}
		if prior == StatusRunning {
			j.met.jobsRunning.Add(-1)
		}
		switch {
		case s == StatusRunning:
			j.met.jobsRunning.Add(1)
		case s == StatusQueued:
			j.met.jobsQueued.Add(1)
		case s.Terminal():
			j.met.completed(s)
		}
	}
	j.hub.publish(Event{Type: "status", Status: s, Error: errMsg, Attempt: attempt})
	if s.Terminal() {
		j.hub.close()
		close(j.done)
	}
	return true
}

// Manager is the job scheduler: a bounded queue feeding a fixed pool of
// job workers, a per-job event hub, and the shared result Store. All
// methods are safe for concurrent use.
type Manager struct {
	cfg   Config
	store *Store
	met   *metrics

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string
	nextID   int
	closed   bool
	draining bool

	queue chan *job
	root  context.Context
	stop  context.CancelFunc
	wg    sync.WaitGroup
}

// New starts a Manager with cfg.Workers job workers. With cfg.ResultDir
// set it reopens the persistent result store first, so fronts archived
// by a previous process are immediately queryable and warm-startable;
// a store that cannot be opened fails construction rather than silently
// degrading to amnesia.
func New(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	store, err := NewStore(StoreConfig{Dir: cfg.ResultDir, MaxResults: cfg.MaxResults})
	if err != nil {
		return nil, err
	}
	// The obs directory is created once here, not per job: a sampler's
	// lazy file open must be the only per-job filesystem cost.
	if cfg.ObsDir != "" {
		if err := os.MkdirAll(cfg.ObsDir, 0o755); err != nil {
			return nil, fmt.Errorf("service: obs dir: %w", err)
		}
	}
	root, stop := context.WithCancel(context.Background())
	m := &Manager{
		cfg:   cfg,
		store: store,
		met:   newMetrics(),
		jobs:  make(map[string]*job),
		queue: make(chan *job, cfg.QueueLimit),
		root:  root,
		stop:  stop,
	}
	m.wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go func() {
			defer m.wg.Done()
			for j := range m.queue {
				m.runJob(j)
			}
		}()
	}
	return m, nil
}

// Store returns the versioned result store.
func (m *Manager) Store() *Store { return m.store }

// Close cancels every job, stops accepting submissions, and waits for the
// workers to drain. Queued jobs are marked cancelled. Obs writer
// goroutines are drained too, so every job's telemetry file is complete
// on disk when Close returns.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		m.drainSamplers()
		return
	}
	m.closed = true
	close(m.queue)
	m.mu.Unlock()
	m.stop()
	m.wg.Wait()
	m.drainSamplers()
	// Anything still non-terminal (queued jobs the workers never reached)
	// is cancelled for the record.
	m.mu.Lock()
	jobs := make([]*job, 0, len(m.order))
	for _, id := range m.order {
		jobs = append(jobs, m.jobs[id])
	}
	m.mu.Unlock()
	for _, j := range jobs {
		j.setStatus(StatusCancelled, "manager closed")
	}
	m.store.Close()
}

// drainSamplers waits for every job's obs writer goroutine to finish
// flushing. Workers must be drained first: runJob's deferred
// sampler.close is what lets a writer exit.
func (m *Manager) drainSamplers() {
	m.mu.Lock()
	samplers := make([]*jobSampler, 0, len(m.order))
	for _, id := range m.order {
		j := m.jobs[id]
		j.mu.Lock()
		if j.sampler != nil {
			samplers = append(samplers, j.sampler)
		}
		j.mu.Unlock()
	}
	m.mu.Unlock()
	for _, s := range samplers {
		s.drain()
	}
}

// Drain begins a graceful shutdown: new submissions are rejected with
// ErrDraining, every non-terminal job is cancelled cooperatively (running
// jobs stop at their next search boundary, leaving their durable
// checkpoints behind for a resume_job restart), and Drain blocks until
// every job reaches a terminal state or ctx expires. The manager keeps
// serving reads — job state, fronts, results — while and after draining;
// Close finishes the shutdown.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	m.draining = true
	jobs := make([]*job, 0, len(m.order))
	for _, id := range m.order {
		jobs = append(jobs, m.jobs[id])
	}
	m.mu.Unlock()
	for _, j := range jobs {
		j.cancel()
		// Jobs still queued (never started, or waiting out a retry) settle
		// immediately; running jobs settle at their next search boundary.
		j.mu.Lock()
		queued := j.info.Status == StatusQueued
		j.mu.Unlock()
		if queued {
			j.setStatus(StatusCancelled, "manager draining")
		}
	}
	for _, j := range jobs {
		select {
		case <-j.done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// Submit validates the spec and enqueues a new job, returning its info
// snapshot. It fails fast on a full queue (ErrQueueFull), a draining
// manager (ErrDraining), or a closed one (ErrClosed).
func (m *Manager) Submit(spec Spec) (JobInfo, error) {
	spec = spec.normalize()
	if err := spec.Validate(); err != nil {
		return JobInfo{}, err
	}
	// An explicit warm-start version is a provenance request; reject it
	// at submit time if the store cannot honor it, instead of failing the
	// job after it was queued. (auto degrades to a cold run, never fails.)
	if v, ok := warmStartVersion(spec.WarmStart); ok {
		if _, found := m.store.Get(v); !found {
			return JobInfo{}, fmt.Errorf("service: warm-start version %d is not in the result store", v)
		}
	}
	// resume_job reads durable checkpoint files; without a checkpoint
	// directory there is nothing it could ever find. Fail the submit, not
	// the queued job.
	if spec.ResumeJob != "" && m.cfg.CheckpointDir == "" {
		return JobInfo{}, fmt.Errorf("service: resume_job needs a server checkpoint directory (wsn-serve -checkpoint-dir)")
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return JobInfo{}, ErrClosed
	}
	if m.draining {
		m.mu.Unlock()
		return JobInfo{}, ErrDraining
	}
	m.nextID++
	id := fmt.Sprintf("j%d", m.nextID)
	ctx, cancel := context.WithCancel(m.root)
	j := &job{
		spec:   spec,
		ctx:    ctx,
		cancel: cancel,
		hub:    newHub(&m.met.sseSubscribers),
		met:    m.met,
		done:   make(chan struct{}),
	}
	j.info = JobInfo{
		ID:        id,
		Spec:      publicSpec(spec),
		Status:    StatusQueued,
		CreatedAt: time.Now(),
	}
	if spec.Resume != nil {
		j.info.ResumedFromStep = spec.Resume.Step
	}
	// The queue send stays inside the critical section: it is non-blocking,
	// and m.mu is what orders it against Close's close(m.queue) — a send
	// racing the close would panic the process. The queued event precedes
	// the send so a fast worker cannot publish "running" first (the hub
	// lock is leaf-level, so publishing under m.mu is cycle-free), and a
	// rejected job was never registered, so sustained overload does not
	// accrete phantom job records.
	j.hub.publish(Event{Type: "status", Status: StatusQueued})
	select {
	case m.queue <- j:
	default:
		m.mu.Unlock()
		cancel()
		return JobInfo{}, ErrQueueFull
	}
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.mu.Unlock()
	m.met.jobsSubmitted.Add(1)
	m.met.jobsQueued.Add(1)
	return j.snapshotInfo(), nil
}

// publicSpec strips the (potentially huge) resume snapshot from the spec
// echoed in JobInfo.
func publicSpec(s Spec) Spec {
	s.Resume = nil
	return s
}

// snapshotInfo returns a copy of the job's info under its lock.
func (j *job) snapshotInfo() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := j.info
	if info.Progress != nil {
		p := *info.Progress
		info.Progress = &p
	}
	return info
}

// lookup fetches a job by id.
func (m *Manager) lookup(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Get returns a job's current info.
func (m *Manager) Get(id string) (JobInfo, bool) {
	j, ok := m.lookup(id)
	if !ok {
		return JobInfo{}, false
	}
	return j.snapshotInfo(), true
}

// Jobs returns every job's info in submission order.
func (m *Manager) Jobs() []JobInfo {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	m.mu.Unlock()
	out := make([]JobInfo, 0, len(ids))
	for _, id := range ids {
		if j, ok := m.lookup(id); ok {
			out = append(out, j.snapshotInfo())
		}
	}
	return out
}

// Cancel requests cooperative cancellation. Queued jobs cancel
// immediately; running jobs stop at their next search boundary, keeping
// the partial front. Cancelling a terminal job is a no-op.
func (m *Manager) Cancel(id string) error {
	j, ok := m.lookup(id)
	if !ok {
		return ErrNotFound
	}
	j.cancel()
	// If the job is still queued the worker will observe the dead context
	// before starting the search; mark it cancelled eagerly so callers see
	// the state settle without waiting for a worker to reach it.
	j.mu.Lock()
	queued := j.info.Status == StatusQueued
	j.mu.Unlock()
	if queued {
		j.setStatus(StatusCancelled, context.Canceled.Error())
	}
	return nil
}

// Wait blocks until the job reaches a terminal state or ctx expires.
func (m *Manager) Wait(ctx context.Context, id string) (JobInfo, error) {
	j, ok := m.lookup(id)
	if !ok {
		return JobInfo{}, ErrNotFound
	}
	select {
	case <-j.done:
		return j.snapshotInfo(), nil
	case <-ctx.Done():
		return j.snapshotInfo(), ctx.Err()
	}
}

// Front returns the job's Pareto front: the full result for done jobs,
// the partial front for cancelled and timed-out ones. Queued/running/
// failed jobs return ErrNotFinished (wrapped with the state, so callers
// can distinguish not-yet from never).
func (m *Manager) Front(id string) (FrontResponse, error) {
	j, ok := m.lookup(id)
	if !ok {
		return FrontResponse{}, ErrNotFound
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.result == nil {
		return FrontResponse{}, fmt.Errorf("%w (status %s)", ErrNotFinished, j.info.Status)
	}
	return FrontResponse{
		JobID:      j.info.ID,
		Status:     j.info.Status,
		Scenario:   j.spec.Scenario,
		Algorithm:  j.spec.Algorithm,
		Seed:       j.spec.Seed,
		Evaluated:  j.result.Evaluated,
		Infeasible: j.result.Infeasible,
		Front:      frontPoints(j.result.Front),
	}, nil
}

// Checkpoint returns the job's latest snapshot (from memory; the
// CheckpointDir file is its durable twin). Island jobs have no single
// snapshot — their per-island checkpoints live under CheckpointDir and a
// restart reaches them through Spec.ResumeJob — so they report
// ErrNoSnapshot here.
func (m *Manager) Checkpoint(id string) (*dse.Snapshot, error) {
	j, ok := m.lookup(id)
	if !ok {
		return nil, ErrNotFound
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.snapshot == nil {
		return nil, ErrNoSnapshot
	}
	return j.snapshot, nil
}

// Subscribe attaches to the job's event stream: replayed history plus a
// live channel (closed when the job terminates). cancel detaches early.
func (m *Manager) Subscribe(id string) (replay []Event, ch <-chan Event, cancel func(), err error) {
	return m.SubscribeFrom(id, 0)
}

// SubscribeFrom is Subscribe with the replay filtered to events after
// sequence number afterSeq — the server side of SSE resume via
// Last-Event-ID, so a reconnecting consumer never re-reads history it
// already processed. afterSeq 0 replays everything retained.
func (m *Manager) SubscribeFrom(id string, afterSeq int) (replay []Event, ch <-chan Event, cancel func(), err error) {
	j, ok := m.lookup(id)
	if !ok {
		return nil, nil, nil, ErrNotFound
	}
	replay, ch, cancel = j.hub.subscribeFrom(afterSeq)
	return replay, ch, cancel, nil
}

// runJob supervises one job on a manager worker: it runs attempts under
// panic recovery, classifies each outcome (success, cancelled, deadline,
// failure), and walks the retry edge — backoff, then re-run from the
// latest checkpoint — until the job reaches a terminal state.
func (m *Manager) runJob(j *job) {
	// Release the job's cancel context once the job is over: a child of
	// the manager root stays registered with its parent until cancelled,
	// so skipping this would leak one context node per job for the life
	// of the process.
	defer j.cancel()
	j.mu.Lock()
	status := j.info.Status
	id := j.info.ID
	j.mu.Unlock()
	if status.Terminal() {
		return // cancelled while queued
	}
	if j.ctx.Err() != nil {
		j.setStatus(StatusCancelled, j.ctx.Err().Error())
		return
	}

	// The telemetry sampler spans every attempt: the ring and obs file
	// carry one continuous series with the attempt column distinguishing
	// retries.
	sampler := newJobSampler(m.met, id, j.spec.Scenario, j.spec.Islands >= 2,
		m.cfg.ObsDir, m.cfg.ObsSampleInterval, m.cfg.Logf)
	j.mu.Lock()
	j.sampler = sampler
	j.mu.Unlock()
	defer sampler.close()

	// The deadline clock starts when the job first runs (queue wait is
	// the scheduler's fault, not the job's) and spans every retry.
	j.runCtx = j.ctx
	if d := j.spec.DeadlineSeconds; d > 0 {
		var cancel context.CancelFunc
		j.runCtx, cancel = context.WithTimeoutCause(j.ctx,
			time.Duration(d*float64(time.Second)), errJobDeadline)
		defer cancel()
	}

	for attempt := 1; ; attempt++ {
		j.mu.Lock()
		j.info.Attempts = attempt
		j.info.NextRetryAt = nil
		j.mu.Unlock()
		sampler.setAttempt(attempt)
		if !j.setStatus(StatusRunning, "") {
			return // cancelled during the retry wait, status already set
		}
		res, err := m.runAttempt(j)
		switch {
		case err == nil:
			j.mu.Lock()
			j.result = res
			j.mu.Unlock()
			m.archive(j, id, res)
			j.setStatus(StatusDone, "")
			return
		case errors.Is(err, context.DeadlineExceeded) || context.Cause(j.runCtx) == errJobDeadline:
			j.mu.Lock()
			j.result = res // partial front, like a cancelled run
			j.mu.Unlock()
			j.setStatus(StatusTimedOut, fmt.Sprintf("deadline of %gs exceeded", j.spec.DeadlineSeconds))
			return
		case errors.Is(err, context.Canceled):
			j.mu.Lock()
			j.result = res
			j.mu.Unlock()
			j.setStatus(StatusCancelled, context.Canceled.Error())
			return
		}

		// Attempt failed (error or recovered panic). Out of retries →
		// failed; otherwise walk the retry edge back to queued.
		if attempt > j.spec.MaxRetries {
			j.setStatus(StatusFailed, errMessage(err))
			return
		}
		delay := retryDelay(attempt, m.cfg.RetryBaseDelay, m.cfg.RetryMaxDelay)
		next := time.Now().Add(delay)
		j.mu.Lock()
		j.info.NextRetryAt = &next
		j.mu.Unlock()
		if !j.setStatus(StatusQueued, errMessage(err)) {
			return
		}
		m.met.retries.Add(1)
		m.cfg.Logf("service: job %s attempt %d/%d failed, retrying in %s: %v",
			id, attempt, j.spec.MaxRetries+1, delay.Round(time.Millisecond), err)
		select {
		case <-j.runCtx.Done():
			if context.Cause(j.runCtx) == errJobDeadline {
				j.setStatus(StatusTimedOut, fmt.Sprintf("deadline of %gs exceeded", j.spec.DeadlineSeconds))
			} else {
				j.setStatus(StatusCancelled, context.Canceled.Error())
			}
			return
		case <-time.After(delay):
		}
	}
}

// runAttempt executes one attempt under panic recovery: a panicking
// evaluator (or progress/checkpoint hook on the search goroutine) becomes
// a *PanicError carrying the stack, failing the attempt instead of the
// process.
func (m *Manager) runAttempt(j *job) (res *dse.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, &PanicError{Value: p, Stack: debug.Stack()}
		}
	}()
	return m.execute(j)
}

// archive stores a finished job's front. Archiving failures degrade
// gracefully: the job stays done (its front is readable via /front and
// resumable via its checkpoint) and the failure is logged — a full disk
// must cost durability, not the exploration budget already spent.
func (m *Manager) archive(j *job, id string, res *dse.Result) {
	stored := StoredResult{
		JobID:       id,
		Scenario:    j.spec.Scenario,
		Algorithm:   j.spec.Algorithm,
		Objectives:  ObjectivesFull,
		Seed:        j.spec.Seed,
		Evaluated:   res.Evaluated,
		Infeasible:  res.Infeasible,
		Front:       frontPoints(res.Front),
		CompletedAt: time.Now(),
	}
	if fp, ok := scenario.FingerprintOf(j.spec.Scenario); ok {
		stored.Fingerprint = fp
	}
	version, err := m.store.Put(stored)
	if err != nil {
		m.cfg.Logf("service: job %s: archiving result failed (front still served from memory): %v", id, err)
		return
	}
	j.mu.Lock()
	j.info.ResultVersion = version
	j.mu.Unlock()
}

// execute materializes the scenario's compiled pipeline and runs the
// spec's algorithm under the job's context with progress and checkpoint
// hooks attached.
func (m *Manager) execute(j *job) (*dse.Result, error) {
	spec := j.spec
	sc, ok := scenario.Lookup(spec.Scenario)
	if !ok {
		return nil, fmt.Errorf("scenario %q disappeared from the registry", spec.Scenario)
	}
	problem, err := scenario.NewProblem(sc, casestudy.DefaultCalibration())
	if err != nil {
		return nil, err
	}
	compiled, err := problem.Compile()
	if err != nil {
		return nil, err
	}
	eval := compiled.Evaluator()

	if spec.Islands >= 2 {
		return m.executeIslands(j, problem.Space(), eval)
	}

	// Retry attempts resume from the latest in-memory snapshot (kept in
	// sync with the durable file), falling back to the spec's own Resume.
	// Either way the trajectory from that point is deterministic, so the
	// retried job's final front matches an uninterrupted run bit for bit.
	j.mu.Lock()
	resume := j.snapshot
	j.mu.Unlock()
	if resume == nil {
		resume = spec.Resume
	}
	// resume_job: restart from the durable checkpoint a previous job left
	// in the server's checkpoint directory. A checkpoint that is missing or
	// fails verification in both slots (errors wrapping os.ErrNotExist and
	// dse.ErrCorruptSnapshot respectively) fails the job with that
	// diagnosis — silently restarting from scratch would masquerade as a
	// resume while exploring a different trajectory prefix.
	if resume == nil && spec.ResumeJob != "" {
		snap, err := LoadSnapshot(m.cfg.CheckpointDir, spec.ResumeJob)
		if err != nil {
			return nil, err
		}
		if snap.Algorithm != spec.Algorithm {
			return nil, fmt.Errorf("service: job %s checkpoint is a %s run, spec wants %s",
				spec.ResumeJob, snap.Algorithm, spec.Algorithm)
		}
		resume = snap
		j.mu.Lock()
		j.info.ResumedFromStep = snap.Step
		j.mu.Unlock()
	}

	start := time.Now()
	j.mu.Lock()
	sampler := j.sampler
	j.mu.Unlock()
	opts := dse.Options{
		Context: j.runCtx,
		Stats: func(st dse.Stats) {
			faultinject.Boundary(j.info.ID, spec.Algorithm, st.Step)
			elapsed := time.Since(start).Seconds()
			info := ProgressInfo{
				Step:       st.Step,
				TotalSteps: st.TotalSteps,
				Evaluated:  st.Evaluated,
				Infeasible: st.Infeasible,
				FrontSize:  len(st.Front),
				ElapsedSec: elapsed,
			}
			if elapsed > 0 {
				info.EvalsPerSec = float64(st.Evaluated) / elapsed
			}
			j.mu.Lock()
			j.info.Progress = &info
			j.mu.Unlock()
			j.hub.publish(Event{Type: "progress", Progress: &info})
			if sampler != nil {
				sampler.observeSearch(st)
			}
		},
		CheckpointEvery: spec.CheckpointEvery,
		Resume:          resume,
	}
	// Warm-start resolution happens here — on the worker, not at Submit —
	// so the seeds reflect the store's contents when the job actually
	// starts (a queued job can inherit fronts finished ahead of it). It
	// runs once per job, not per attempt: the resolved seeds are cached on
	// the job so a retry cannot pick up fronts archived since attempt one
	// and drift onto a different trajectory.
	if spec.Resume == nil && (spec.Algorithm == AlgoNSGA2 || spec.Algorithm == AlgoMOSA) {
		if !j.seedsResolved {
			fp, _ := scenario.FingerprintOf(spec.Scenario) // found: Lookup succeeded above, entries are never removed
			seeds, wsInfo, err := ResolveWarmStart(m.store, spec.WarmStart,
				fp, ObjectivesFull, spec.Algorithm, spec.Scenario, problem.Space())
			if err != nil {
				return nil, err
			}
			j.seeds, j.seedsResolved = seeds, true
			if wsInfo != nil {
				j.mu.Lock()
				j.info.WarmStart = wsInfo
				j.mu.Unlock()
			}
		}
		if resume == nil {
			opts.SeedPoints = j.seeds
		}
	}
	if spec.CheckpointEvery > 0 {
		opts.Checkpoint = func(snap *dse.Snapshot) error {
			j.mu.Lock()
			j.snapshot = snap
			id := j.info.ID
			j.mu.Unlock()
			// The durable write is best-effort: a full disk (or injected
			// write failure) costs durability, not the run — the in-memory
			// snapshot above still backs retries, so log and continue.
			if m.cfg.CheckpointDir != "" {
				if err := writeSnapshotFile(m.cfg.CheckpointDir, id, snap); err != nil {
					m.cfg.Logf("service: job %s: checkpoint write at step %d failed (run continues): %v", id, snap.Step, err)
				}
			}
			return nil
		}
	}

	switch spec.Algorithm {
	case AlgoNSGA2:
		cfg := dse.NSGA2Config{}
		if spec.NSGA2 != nil {
			cfg = *spec.NSGA2
		}
		cfg.Seed, cfg.Workers = spec.Seed, spec.Workers
		return dse.NSGA2Opts(problem.Space(), eval, cfg, opts)
	case AlgoMOSA:
		cfg := dse.MOSAConfig{}
		if spec.MOSA != nil {
			cfg = *spec.MOSA
		}
		cfg.Seed, cfg.Workers = spec.Seed, spec.Workers
		return dse.MOSAOpts(problem.Space(), eval, cfg, opts)
	case AlgoExhaustive:
		return dse.ExhaustiveOpts(problem.Space(), eval, spec.MaxPoints, spec.Workers, opts)
	case AlgoRandom:
		return dse.RandomSearchOpts(problem.Space(), eval, spec.Budget, spec.Seed, spec.Workers, opts)
	default:
		return nil, fmt.Errorf("unknown algorithm %q", spec.Algorithm)
	}
}

// executeIslands runs an island job (Spec.Islands >= 2) through the
// island coordinator: the search is partitioned across supervised
// islands with deterministic ring migration, island events are published
// on the job's stream, per-island supervision state lands in
// JobInfo.Islands, and the coordinator's composite checkpoints back both
// in-process retries (j.islandSnap) and cross-process resume_job
// restarts (per-island snapfiles under Config.CheckpointDir).
func (m *Manager) executeIslands(j *job, space *dse.Space, eval dse.Evaluator) (*dse.Result, error) {
	spec := j.spec
	ijob := island.Job{
		JobID:     j.info.ID,
		Scenario:  spec.Scenario,
		Algorithm: spec.Algorithm,
		NSGA2:     spec.NSGA2,
		MOSA:      spec.MOSA,
		Seed:      spec.Seed,
		Workers:   spec.Workers,
	}
	cfg := island.Config{
		Islands:       spec.Islands,
		Interval:      spec.MigrationInterval,
		Migrants:      spec.Migrants,
		StallTimeout:  m.cfg.IslandStallTimeout,
		CheckpointDir: m.cfg.CheckpointDir,
		Logf:          m.cfg.Logf,
	}
	j.mu.Lock()
	sampler := j.sampler
	j.mu.Unlock()
	if sampler != nil {
		cfg.Stats = sampler.observeIsland
	}
	if m.cfg.IslandExec != "" {
		cfg.Runner = &island.ProcRunner{Bin: m.cfg.IslandExec}
	}

	// Retry attempts resume from the coordinator's latest composite
	// checkpoint; a resume_job restart reassembles one from the previous
	// job's per-island snapfiles (the newest migration boundary every
	// island has a verified snapshot for). Missing or corrupt checkpoints
	// fail the job with that diagnosis, exactly like the single-search
	// resume_job path.
	j.mu.Lock()
	resume := j.islandSnap
	j.mu.Unlock()
	if resume == nil && spec.ResumeJob != "" {
		comp, err := island.LoadCheckpoint(m.cfg.CheckpointDir, spec.ResumeJob, spec.Islands)
		if err != nil {
			return nil, err
		}
		resume = comp
	}
	cfg.Resume = resume
	if resume != nil {
		j.mu.Lock()
		j.info.ResumedFromStep = resume.Step
		j.mu.Unlock()
	}
	cfg.OnCheckpoint = func(s *dse.IslandSnapshot) {
		j.mu.Lock()
		j.islandSnap = s
		j.mu.Unlock()
	}

	// OnEvent fires from coordinator and executor goroutines, all spawned
	// inside Run — strictly after coord is assigned below.
	var coord *island.Coordinator
	cfg.OnEvent = func(e island.Event) {
		sts := coord.Status()
		switch e.Kind {
		case island.EventRound:
			m.met.islandRounds.Add(1)
		case island.EventRestart:
			m.met.islandRestarts.Add(1)
		}
		if sampler != nil {
			restarts := 0
			for _, st := range sts {
				restarts += st.Restarts
			}
			sampler.setIsland(e.Round, restarts)
		}
		j.mu.Lock()
		j.info.Islands = sts
		j.mu.Unlock()
		ev := e
		j.hub.publish(Event{Type: "island", Island: &ev})
	}

	coord, err := island.New(cfg, ijob, space, eval)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	j.info.Islands = coord.Status()
	j.mu.Unlock()
	res, runErr := coord.Run(j.runCtx)
	j.mu.Lock()
	j.info.Islands = coord.Status()
	j.mu.Unlock()
	return res, runErr
}
