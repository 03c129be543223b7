package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"wsndse/internal/casestudy"
	"wsndse/internal/dse"
	"wsndse/internal/scenario"
	"wsndse/internal/service"
)

// managerLoad is a workload served by service.Manager: every pass opens a
// fresh Manager, runs the same specs closed-loop with inFlight callers,
// and closes it, so memory and store contents do not drift with run
// length.
type managerLoad struct {
	jobs     []service.Spec
	passSize int // jobs per pass; passes walk jobs cyclically
	inFlight int
	workers  int  // Config.Workers
	dirs     bool // ResultDir, CheckpointDir and ObsDir under the pass dir
	prefill  string
	problems sync.Map // scenario name → *scenario.Problem, for verify
}

// jobRun is a Manager job's payload: what verify and the tracer read.
type jobRun struct {
	info     service.JobInfo
	front    service.FrontResponse
	submit   time.Duration
	returned time.Time
}

func (l *managerLoad) specs() int { return len(l.jobs) }

func (l *managerLoad) config(dir string) service.Config {
	cfg := service.Config{Workers: l.workers, QueueLimit: 4 * l.inFlight}
	if l.dirs {
		cfg.ResultDir = filepath.Join(dir, "results")
		cfg.CheckpointDir = filepath.Join(dir, "checkpoints")
		cfg.ObsDir = filepath.Join(dir, "obs")
	}
	return cfg
}

func (l *managerLoad) pass(n int, dir string, tr *tracer) (passResult, error) {
	cfg := l.config(dir)
	if l.prefill != "" {
		if err := copyDir(l.prefill, cfg.ResultDir); err != nil {
			return passResult{}, err
		}
	}
	var rep *replica
	if tr != nil {
		var err error
		if rep, err = newReplica(tr, fmt.Sprintf("p%d", n), l.prefill, filepath.Join(dir, "replica")); err != nil {
			return passResult{}, err
		}
		defer rep.close()
	}
	m, err := service.New(cfg)
	if err != nil {
		return passResult{}, err
	}
	first := n * l.passSize % len(l.jobs)
	specs := l.jobs[first : first+l.passSize]
	start, cpuStart := time.Now(), cpuTime()
	jobs := drive(m, specs, l.inFlight)
	wall, cpu := time.Since(start), cpuTime()-cpuStart
	m.Close()
	// Replays run after the pass, in submission order, so they never
	// compete with the Manager's jobs for the CPUs and the replica's
	// store sees its puts in the order the Manager's store did.
	if rep != nil {
		for i := range jobs {
			if jobs[i].err == nil {
				rep.shadow(&jobs[i], specs[i])
			}
		}
		wall, cpu = time.Since(start), cpuTime()-cpuStart
	}
	if tr != nil && cfg.ObsDir != "" {
		size, err := dirSize(cfg.ObsDir)
		if err != nil {
			return passResult{}, err
		}
		tr.addObsBytes(size, len(jobs))
	}
	for i := range jobs {
		jobs[i].spec += first
		if r, ok := jobs[i].payload.(*jobRun); ok {
			jobs[i].digest = jobDigest(r.front)
		}
	}
	return passResult{wall: wall, cpu: cpu, jobs: jobs}, nil
}

// drive runs specs through m closed-loop: inFlight callers each submit
// a job, wait for it and fetch its front before taking the next spec.
func drive(m *service.Manager, specs []service.Spec, inFlight int) []jobResult {
	out := make([]jobResult, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < inFlight; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(specs) {
					return
				}
				out[i] = runJob(m, i, specs[i])
			}
		}()
	}
	wg.Wait()
	return out
}

func runJob(m *service.Manager, i int, spec service.Spec) jobResult {
	res := jobResult{spec: i}
	start := time.Now()
	info, err := m.Submit(spec)
	submitted := time.Now()
	if err != nil {
		res.err = fmt.Errorf("submit refused: %w", err)
		return res
	}
	res.id = info.ID
	info, err = m.Wait(context.Background(), info.ID)
	returned := time.Now()
	res.latency = returned.Sub(start)
	if err != nil {
		res.err = err
		return res
	}
	if info.Status != service.StatusDone {
		res.err = fmt.Errorf("status %s: %s", info.Status, info.Error)
		return res
	}
	front, err := m.Front(info.ID)
	if err != nil {
		res.err = err
		return res
	}
	res.evaluated = front.Evaluated
	res.payload = &jobRun{info: info, front: front, submit: submitted.Sub(start), returned: returned}
	return res
}

// verify re-derives a front from first principles: every point indexes
// the scenario's space, its objectives equal the reference (uncompiled)
// evaluator's bit for bit, no point dominates another, and the counts
// are consistent. An empty front is valid: a small search can find no
// feasible design.
func (l *managerLoad) verify(j *jobResult) error {
	r := j.payload.(*jobRun)
	f := r.front
	if f.Evaluated <= 0 || f.Infeasible < 0 || f.Infeasible > f.Evaluated || len(f.Front) > f.Evaluated-f.Infeasible {
		return fmt.Errorf("inconsistent counts: evaluated %d, infeasible %d, front %d", f.Evaluated, f.Infeasible, len(f.Front))
	}
	p, err := l.problem(f.Scenario)
	if err != nil {
		return err
	}
	ref := p.Evaluator()
	for i, pt := range f.Front {
		if !p.Space().Valid(pt.Config) {
			return fmt.Errorf("front point %d: config %v outside the space", i, pt.Config)
		}
		objs, err := ref.Evaluate(pt.Config)
		if err != nil {
			return fmt.Errorf("front point %d: reference evaluator: %v", i, err)
		}
		if !sameBits(objs, pt.Objs) {
			return fmt.Errorf("front point %d: objectives %v, reference evaluator gives %v", i, pt.Objs, objs)
		}
		for k, q := range f.Front {
			if k != i && dse.Dominates(q.Objs, pt.Objs) {
				return fmt.Errorf("front point %d is dominated by point %d", i, k)
			}
		}
	}
	return nil
}

func (l *managerLoad) problem(name string) (*scenario.Problem, error) {
	if p, ok := l.problems.Load(name); ok {
		return p.(*scenario.Problem), nil
	}
	sc, ok := scenario.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("scenario %q not registered", name)
	}
	p, err := scenario.NewProblem(sc, casestudy.DefaultCalibration())
	if err != nil {
		return nil, err
	}
	l.problems.Store(name, p)
	return p, nil
}

func (l *managerLoad) reference(string) ([]string, error) { return nil, nil }

// runOnce runs specs through a fresh Manager and returns their digests,
// failing on the first job that does not finish.
func (l *managerLoad) runOnce(dir string, specs []service.Spec) ([]string, error) {
	m, err := service.New(l.config(dir))
	if err != nil {
		return nil, err
	}
	defer m.Close()
	jobs := drive(m, specs, l.inFlight)
	digests := make([]string, len(jobs))
	for i, j := range jobs {
		if j.err != nil {
			return nil, fmt.Errorf("job %s: %w", j.id, j.err)
		}
		digests[i] = jobDigest(j.payload.(*jobRun).front)
	}
	return digests, nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// copyDir copies the regular files of src into dst (created).
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// dirSize sums the sizes of the regular files in dir.
func dirSize(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}
