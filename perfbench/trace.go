package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"wsndse/internal/baseline"
	"wsndse/internal/casestudy"
	"wsndse/internal/dse"
	"wsndse/internal/experiments"
	"wsndse/internal/scenario"
	"wsndse/internal/service"
)

// span is one timed call into a layer. Spans of one job share Job;
// Parent names the enclosing span. Times are nanoseconds since the
// tracer started.
type span struct {
	Job    string `json:"job"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects spans and layer counters in memory; writeSpans puts
// the spans on disk once the run is over.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	// service layer, from the Manager jobs
	submitUs, wakeUs, queueMs, runMs, selfUs, attempts []float64
	warmRequested, seeded                              int
	// scenario layer
	fingerprintUs, compileUs []float64
	// evaluator counters: the compiled kernel, or on paper-fig5 the
	// case-study and baseline evaluators
	kernelCalls, kernelNs int64
	csCalls, csNs         int64
	evaluated, infeasible int64
	// dse layer; searchMs has one entry per job, the sum of its searches
	searchMs                []float64
	searchNs                int64
	boundaryMs              []float64
	cacheLookups, cacheHits int64
	encodeUs, encodeBytes   []float64
	fig5Evals               []float64
	// store and obs layers
	resolveUs, putUs  []float64
	indexBytes        int64
	obsBytes, obsJobs int64

	shadowed, mismatches int
	errs                 []string
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// fail records a job whose re-execution did not reproduce it.
func (t *tracer) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failLocked(format, args...)
}

func (t *tracer) failLocked(format string, args ...any) {
	t.mismatches++
	if len(t.errs) < 8 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

func (t *tracer) addObsBytes(bytes int64, jobs int) {
	t.mu.Lock()
	t.obsBytes += bytes
	t.obsJobs += int64(jobs)
	t.mu.Unlock()
}

func (t *tracer) setIndexBytes(n int64) {
	t.mu.Lock()
	t.indexBytes = n
	t.mu.Unlock()
}

// writeSpans writes the spans as JSON lines to <dir>/<workload>.spans.jsonl.
func (t *tracer) writeSpans(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// jobTrace accumulates one job's spans on its caller's goroutine; they
// reach the tracer in one locked step once the job is replayed.
type jobTrace struct {
	t     *tracer
	job   string
	spans []span
}

func (j *jobTrace) add(name, parent string, start, end time.Time) time.Duration {
	j.spans = append(j.spans, span{Job: j.job, Name: name, Parent: parent,
		Start: start.Sub(j.t.epoch).Nanoseconds(), End: end.Sub(j.t.epoch).Nanoseconds()})
	return end.Sub(start)
}

// since closes a span opened at start and returns its duration.
func (j *jobTrace) since(name, parent string, start time.Time) time.Duration {
	return j.add(name, parent, start, time.Now())
}

// kernelCount is one evaluator instance's call counter.
type kernelCount struct{ calls, ns atomic.Int64 }

func (k *kernelCount) add(d time.Duration) {
	k.calls.Add(1)
	k.ns.Add(int64(d))
}

// kernelClock sums the counters of a compiled evaluator and its forks.
type kernelClock struct {
	mu    sync.Mutex
	parts []*kernelCount
}

func (k *kernelClock) counter() *kernelCount {
	c := &kernelCount{}
	k.mu.Lock()
	k.parts = append(k.parts, c)
	k.mu.Unlock()
	return c
}

func (k *kernelClock) total() (calls, ns int64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, c := range k.parts {
		calls += c.calls.Load()
		ns += c.ns.Load()
	}
	return calls, ns
}

// timedEval times every call into a plain Evaluator.
type timedEval struct {
	inner dse.Evaluator
	n     *kernelCount
}

func (e *timedEval) NumObjectives() int { return e.inner.NumObjectives() }

func (e *timedEval) Evaluate(c dse.Config) (dse.Objectives, error) {
	start := time.Now()
	objs, err := e.inner.Evaluate(c)
	e.n.add(time.Since(start))
	return objs, err
}

// timedKernel times a compiled evaluator and forwards EvaluateInto and
// Fork, so the batch runtime keeps its allocation-free per-worker path.
type timedKernel struct {
	timedEval
	into  dse.IntoEvaluator
	clock *kernelClock
}

func newTimedKernel(inner dse.Evaluator, clock *kernelClock) (*timedKernel, error) {
	into, ok := inner.(dse.IntoEvaluator)
	if !ok {
		return nil, fmt.Errorf("compiled evaluator %T has no EvaluateInto", inner)
	}
	return &timedKernel{timedEval: timedEval{inner: inner, n: clock.counter()}, into: into, clock: clock}, nil
}

func (e *timedKernel) EvaluateInto(c dse.Config, objs dse.Objectives) error {
	start := time.Now()
	err := e.into.EvaluateInto(c, objs)
	e.n.add(time.Since(start))
	return err
}

func (e *timedKernel) Fork() dse.Evaluator {
	f, ok := e.inner.(dse.Forkable)
	if !ok {
		return e // counters are atomic, so sharing is safe
	}
	k, err := newTimedKernel(f.Fork(), e.clock)
	if err != nil {
		return e
	}
	return k
}

// searchProbe is the Stats sink and checkpoint hook of a re-executed
// search: boundary intervals, final memo-cache counters and
// EncodeSnapshotFile timings.
type searchProbe struct {
	jt                *jobTrace
	last              time.Time
	boundaryMs        []float64
	lookups, hits     int64
	encodeUs, encodeB []float64
}

func (p *searchProbe) stats(st dse.Stats) {
	now := time.Now()
	p.boundaryMs = append(p.boundaryMs, ms(now.Sub(p.last)))
	p.last = now
	p.lookups, p.hits = st.CacheLookups, st.CacheHits
}

func (p *searchProbe) checkpoint(snap *dse.Snapshot) error {
	start := time.Now()
	data, err := dse.EncodeSnapshotFile(snap)
	p.encodeUs = append(p.encodeUs, us(p.jt.since("dse.checkpoint_encode", "dse.search", start)))
	p.encodeB = append(p.encodeB, float64(len(data)))
	return err
}

func (p *searchProbe) options(seeds []dse.Config, checkpointEvery int) dse.Options {
	opts := dse.Options{Stats: p.stats, SeedPoints: seeds}
	if checkpointEvery > 0 {
		opts.CheckpointEvery = checkpointEvery
		opts.Checkpoint = p.checkpoint
	}
	return opts
}

// replica re-executes Manager jobs from the public functions the Manager
// calls, against a Store of its own fed the same puts in the same order.
type replica struct {
	t     *tracer
	label string
	store *service.Store
}

// newReplica opens the replica's store: a copy of prefill when set,
// in memory otherwise.
func newReplica(t *tracer, label, prefill, dir string) (*replica, error) {
	cfg := service.StoreConfig{}
	if prefill != "" {
		if err := copyDir(prefill, dir); err != nil {
			return nil, err
		}
		cfg.Dir = dir
		t.setIndexBytes(storeIndexBytes(prefill))
	}
	st, err := service.NewStore(cfg)
	if err != nil {
		return nil, err
	}
	return &replica{t: t, label: label, store: st}, nil
}

func (r *replica) close() { r.store.Close() }

// shadow records the service spans of a finished Manager job, then
// replays its pipeline with a span around each call, and fails the run
// unless the replay reproduces the job's counts and front. Replays of a
// pass must run in the order the Manager archived the jobs.
func (r *replica) shadow(j *jobResult, spec service.Spec) {
	run := j.payload.(*jobRun)
	info := run.info
	jt := &jobTrace{t: r.t, job: r.label + "." + j.id}
	replayStart := time.Now()
	start := run.returned.Add(-j.latency)
	jt.add("service.job", "", start, run.returned)
	jt.add("service.submit", "service.job", start, start.Add(run.submit))
	jt.add("service.queue", "service.job", info.CreatedAt, *info.StartedAt)
	runTime := jt.add("service.run", "service.job", *info.StartedAt, *info.FinishedAt)
	wake := jt.add("service.wake", "service.job", *info.FinishedAt, run.returned)

	var children time.Duration
	s := time.Now()
	sc, ok := scenario.Lookup(spec.Scenario)
	children += jt.since("scenario.lookup", "replica", s)
	if !ok {
		r.t.fail("%s: scenario %q not registered", jt.job, spec.Scenario)
		return
	}
	s = time.Now()
	fp := sc.Fingerprint()
	fp1 := jt.since("scenario.fingerprint", "replica", s)
	children += fp1
	s = time.Now()
	problem, err := scenario.NewProblem(sc, casestudy.DefaultCalibration())
	var compiled *scenario.Compiled
	if err == nil {
		compiled, err = problem.Compile()
	}
	compile := jt.since("scenario.compile", "replica", s)
	children += compile
	if err != nil {
		r.t.fail("%s: compile: %v", jt.job, err)
		return
	}
	clock := &kernelClock{}
	eval, err := newTimedKernel(compiled.Evaluator(), clock)
	if err != nil {
		r.t.fail("%s: %v", jt.job, err)
		return
	}
	s = time.Now()
	seeds, _, err := service.ResolveWarmStart(r.store, spec.WarmStart, fp, service.ObjectivesFull,
		spec.Algorithm, spec.Scenario, problem.Space())
	resolve := jt.since("store.resolve", "replica", s)
	children += resolve
	if err != nil {
		r.t.fail("%s: resolve: %v", jt.job, err)
		return
	}

	probe := &searchProbe{jt: jt}
	opts := probe.options(seeds, spec.CheckpointEvery)
	s = time.Now()
	probe.last = s
	var res *dse.Result
	switch spec.Algorithm {
	case service.AlgoNSGA2:
		cfg := dse.NSGA2Config{}
		if spec.NSGA2 != nil {
			cfg = *spec.NSGA2
		}
		cfg.Seed, cfg.Workers = spec.Seed, spec.Workers
		res, err = dse.NSGA2Opts(problem.Space(), eval, cfg, opts)
	case service.AlgoMOSA:
		cfg := dse.MOSAConfig{}
		if spec.MOSA != nil {
			cfg = *spec.MOSA
		}
		cfg.Seed, cfg.Workers = spec.Seed, spec.Workers
		res, err = dse.MOSAOpts(problem.Space(), eval, cfg, opts)
	default:
		err = fmt.Errorf("algorithm %s is not replayed", spec.Algorithm)
	}
	search := jt.since("dse.search", "replica", s)
	children += search
	if err != nil {
		r.t.fail("%s: search: %v", jt.job, err)
		return
	}

	s = time.Now()
	stored := service.StoredResult{
		JobID: j.id, Scenario: spec.Scenario, Algorithm: spec.Algorithm,
		Objectives: service.ObjectivesFull, Seed: spec.Seed,
		Evaluated: res.Evaluated, Infeasible: res.Infeasible,
		Front: frontPoints(res.Front), CompletedAt: time.Now(),
	}
	stored.Fingerprint = sc.Fingerprint()
	fp2 := jt.since("scenario.fingerprint", "replica", s)
	children += fp2
	s = time.Now()
	_, err = r.store.Put(stored)
	put := jt.since("store.put", "replica", s)
	children += put
	if err != nil {
		r.t.fail("%s: put: %v", jt.job, err)
		return
	}

	jt.since("replica", "", replayStart)
	replayed := jobDigest(service.FrontResponse{Scenario: spec.Scenario, Algorithm: spec.Algorithm, Seed: spec.Seed,
		Evaluated: res.Evaluated, Infeasible: res.Infeasible, Front: stored.Front})
	calls, ns := clock.total()

	t := r.t
	t.mu.Lock()
	defer t.mu.Unlock()
	t.shadowed++
	if want := jobDigest(run.front); replayed != want {
		t.failLocked("%s: replay evaluated %d (%d infeasible), digest %s; Manager job evaluated %d (%d infeasible), digest %s",
			jt.job, res.Evaluated, res.Infeasible, replayed, run.front.Evaluated, run.front.Infeasible, want)
	}
	t.spans = append(t.spans, jt.spans...)
	t.submitUs = append(t.submitUs, us(run.submit))
	t.wakeUs = append(t.wakeUs, us(wake))
	t.queueMs = append(t.queueMs, ms(info.StartedAt.Sub(info.CreatedAt)))
	t.runMs = append(t.runMs, ms(runTime))
	t.selfUs = append(t.selfUs, us(runTime-children))
	t.attempts = append(t.attempts, float64(info.Attempts))
	if spec.WarmStart != "" && spec.WarmStart != service.WarmStartOff {
		t.warmRequested++
		if info.WarmStart != nil && info.WarmStart.SeedPoints > 0 {
			t.seeded++
		}
	}
	t.fingerprintUs = append(t.fingerprintUs, us(fp1), us(fp2))
	t.compileUs = append(t.compileUs, us(compile))
	t.resolveUs = append(t.resolveUs, us(resolve))
	t.putUs = append(t.putUs, us(put))
	t.searchMs = append(t.searchMs, ms(search))
	t.addSearch(search, probe, res, calls, ns)
}

// addSearch records one re-executed search. Caller holds t.mu.
func (t *tracer) addSearch(d time.Duration, p *searchProbe, res *dse.Result, calls, ns int64) {
	t.searchNs += int64(d)
	t.kernelCalls += calls
	t.kernelNs += ns
	t.evaluated += int64(res.Evaluated)
	t.infeasible += int64(res.Infeasible)
	t.boundaryMs = append(t.boundaryMs, p.boundaryMs...)
	t.cacheLookups += p.lookups
	t.cacheHits += p.hits
	t.encodeUs = append(t.encodeUs, p.encodeUs...)
	t.encodeBytes = append(t.encodeBytes, p.encodeB...)
}

func frontPoints(front []dse.Point) []service.FrontPoint {
	out := make([]service.FrontPoint, len(front))
	for i, p := range front {
		out[i] = service.FrontPoint{Config: append([]int(nil), p.Config...), Objs: append([]float64(nil), p.Objs...)}
	}
	return out
}

// shadowFig5 records the span of one experiments.Fig5 call, replays it
// from the functions it is built on — casestudy.NewProblem, dse.NSGA2 on
// the reference and baseline evaluators, baseline.Lift, dse.MOSA — and
// fails the run unless the replay reproduces the call's fronts and counts.
func (t *tracer) shadowFig5(job string, cfg experiments.Fig5Config, callStart time.Time, call time.Duration, want string) {
	jt := &jobTrace{t: t, job: job}
	jt.add("experiments.fig5", "", callStart, callStart.Add(call))
	replayStart := time.Now()
	s := time.Now()
	problem := casestudy.NewProblem(casestudy.DefaultCalibration())
	jt.since("casestudy.problem", "replica", s)

	type searchRun struct {
		d             time.Duration
		probe         *searchProbe
		res           *dse.Result
		calls, ns     int64
		caseStudyEval bool
	}
	var runs []searchRun
	search := func(fn func(dse.Evaluator, dse.Options) (*dse.Result, error), eval dse.Evaluator, caseStudyEval bool) (*dse.Result, error) {
		n := &kernelCount{}
		probe := &searchProbe{jt: jt}
		s := time.Now()
		probe.last = s
		res, err := fn(&timedEval{inner: eval, n: n}, probe.options(nil, 0))
		d := jt.since("dse.search", "replica", s)
		if err == nil {
			runs = append(runs, searchRun{d, probe, res, n.calls.Load(), n.ns.Load(), caseStudyEval})
		}
		return res, err
	}
	nsga := func(e dse.Evaluator, o dse.Options) (*dse.Result, error) {
		return dse.NSGA2Opts(problem.Space(), e, dse.NSGA2Config{PopulationSize: cfg.PopulationSize,
			Generations: cfg.Generations, Seed: cfg.Seed, Workers: cfg.Workers}, o)
	}
	mosa := func(e dse.Evaluator, o dse.Options) (*dse.Result, error) {
		return dse.MOSAOpts(problem.Space(), e, dse.MOSAConfig{Iterations: cfg.PopulationSize * cfg.Generations,
			Seed: cfg.Seed, Workers: cfg.Workers}, o)
	}
	full, err := search(nsga, problem.Evaluator(), true)
	if err != nil {
		t.fail("%s: full-model search: %v", job, err)
		return
	}
	bres, err := search(nsga, baseline.New(problem), false)
	if err != nil {
		t.fail("%s: baseline search: %v", job, err)
		return
	}
	s = time.Now()
	lifted, err := baseline.Lift(problem, bres.Front)
	jt.since("baseline.lift", "replica", s)
	if err != nil {
		t.fail("%s: lift: %v", job, err)
		return
	}
	sa, err := search(mosa, problem.Evaluator(), true)
	if err != nil {
		t.fail("%s: MOSA search: %v", job, err)
		return
	}
	jt.since("replica", "", replayStart)
	replayed := fig5Digest(cfg.Seed, full.Front, lifted, sa.Front, full.Evaluated, bres.Evaluated)

	t.mu.Lock()
	defer t.mu.Unlock()
	t.shadowed++
	if replayed != want {
		t.failLocked("%s: replay digest %s, Fig5 call digest %s", job, replayed, want)
	}
	t.spans = append(t.spans, jt.spans...)
	evals := 0
	var searchTime time.Duration
	for _, r := range runs {
		searchTime += r.d
		t.addSearch(r.d, r.probe, r.res, r.calls, r.ns)
		if r.caseStudyEval {
			t.csCalls += r.calls
			t.csNs += r.ns
		}
		evals += r.res.Evaluated
	}
	t.fig5Evals = append(t.fig5Evals, float64(evals))
	t.searchMs = append(t.searchMs, ms(searchTime))
}
