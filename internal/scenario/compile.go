package scenario

import (
	"fmt"
	"sync"

	"wsndse/internal/app"
	"wsndse/internal/core"
	"wsndse/internal/dse"
	"wsndse/internal/units"
)

// Compiled is the compiled evaluation pipeline of a scenario: the full
// (BO × SFO gap × payload) MAC grid, the per-node MAC views of
// payload-override nodes over the (BO × SFO gap) grid, per-node
// application instances per CR grid index, and the per (application,
// sample-rate) output rates and quality values — all pre-built once, so
// evaluation reduces to table lookups plus the Eq. 1–9 arithmetic of
// core.EvaluateWithRatesInto and steady-state evaluation performs zero
// heap allocations.
//
// The compiled evaluator is guaranteed bit-identical to
// Problem.Evaluator(): the tables hold exactly the objects and values the
// reference path would rebuild per call, and the arithmetic is the same
// core code.
type Compiled struct {
	problem *Problem
	n       int
	theta   float64

	// base is the flattened (BO × SFO gap × payload) grid of shared MACs;
	// views[i] is nil for nodes following the network payload gene, else
	// the (BO × SFO gap) grid of node i's payload-override view.
	base            []core.GTSMacEntry
	views           [][]core.GTSMacEntry
	nBO, nGap, nPay int

	// Per-node χ_node tables. Nodes without a CR gene (raw streamers)
	// hold single-entry tables at their fixed CR of 1.
	apps    [][]app.Application
	phiIn   []units.BytesPerSecond
	phiOut  [][]units.BytesPerSecond
	quality [][]float64
	freqs   [][]units.Hertz // freqs[node][fIdx], the node's explorable grid
}

// Compile pre-builds the lookup tables of the compiled evaluation
// pipeline. It fails fast on grid values the reference evaluator would
// reject for every configuration; χ_mac points whose MAC construction
// fails are recorded and reported per evaluation instead.
func (p *Problem) Compile() (*Compiled, error) {
	sc := p.Scenario
	n := len(sc.Nodes)
	t := &Compiled{
		problem: p,
		n:       n,
		theta:   sc.Theta,
		nBO:     len(sc.BeaconOrders),
		nGap:    len(sc.SFOGaps),
		nPay:    len(sc.Payloads),
		views:   make([][]core.GTSMacEntry, n),
		apps:    make([][]app.Application, n),
		phiIn:   make([]units.BytesPerSecond, n),
		phiOut:  make([][]units.BytesPerSecond, n),
		quality: make([][]float64, n),
		freqs:   make([][]units.Hertz, n),
	}

	t.base = core.BuildGTSMacGrid(sc.BeaconOrders, sc.SFOGaps, sc.Payloads, n)
	for i, ns := range sc.Nodes {
		if ns.PayloadBytes > 0 {
			// The (BO × SFO gap) view grid of a payload-override node:
			// the payload axis collapses to the node's fixed frame size.
			t.views[i] = core.BuildGTSMacGrid(sc.BeaconOrders, sc.SFOGaps, []int{ns.PayloadBytes}, n)
		}
	}

	for i, ns := range sc.Nodes {
		phiIn := ns.Platform.InputRate(ns.SampleFreq)
		t.phiIn[i] = phiIn
		crs := []float64{1} // nodes without a CR gene forward unmodified
		if g := p.crGene[i]; g >= 0 {
			crs = p.space.Params[g].Values
		}
		apps := make([]app.Application, len(crs))
		rates := make([]units.BytesPerSecond, len(crs))
		quals := make([]float64, len(crs))
		for j, cr := range crs {
			a, err := app.For(p.Cal, ns.Kind, cr)
			if err != nil {
				return nil, fmt.Errorf("scenario %q: Compile: node %s, CR %g: %w", sc.Name, ns.Name, cr, err)
			}
			apps[j] = a
			rates[j] = a.OutputRate(phiIn)
			quals[j] = a.Quality(phiIn)
		}
		t.apps[i] = apps
		t.phiOut[i] = rates
		t.quality[i] = quals
		fVals := p.space.Params[p.fGene[i]].Values
		freqs := make([]units.Hertz, len(fVals))
		for j, f := range fVals {
			freqs[j] = units.Hertz(f)
		}
		t.freqs[i] = freqs
	}
	return t, nil
}

// Evaluator returns the compiled three-objective evaluator: minimize
// (E_net [W], quality loss, delay_net [s]), bit-identical to
// Problem.Evaluator() but allocation-free in steady state. It is safe for
// concurrent use — ad-hoc callers are served from a sync.Pool of
// evaluation contexts — and implements dse.IntoEvaluator and dse.Forkable,
// so the batch runtime gives each worker a private context.
func (t *Compiled) Evaluator() dse.Evaluator {
	return &pooledEval{t: t, pool: sync.Pool{New: func() any { return newCompiledEval(t) }}}
}

// pooledEval is the concurrency-safe front of the compiled pipeline.
type pooledEval struct {
	t    *Compiled
	pool sync.Pool // of *compiledEval
}

// NumObjectives implements dse.Evaluator.
func (p *pooledEval) NumObjectives() int { return 3 }

// Evaluate implements dse.Evaluator on a pooled context.
func (p *pooledEval) Evaluate(c dse.Config) (dse.Objectives, error) {
	e := p.pool.Get().(*compiledEval)
	defer p.pool.Put(e)
	return e.Evaluate(c)
}

// EvaluateInto implements dse.IntoEvaluator on a pooled context.
func (p *pooledEval) EvaluateInto(c dse.Config, objs dse.Objectives) error {
	e := p.pool.Get().(*compiledEval)
	defer p.pool.Put(e)
	return e.EvaluateInto(c, objs)
}

// Fork implements dse.Forkable: a private context for one worker.
func (p *pooledEval) Fork() dse.Evaluator { return newCompiledEval(p.t) }

// compiledEval is one evaluation context: the shared immutable tables plus
// a private core.Workspace. It implements dse.IntoEvaluator but is not
// safe for concurrent use.
type compiledEval struct {
	t  *Compiled
	ws *core.Workspace
}

func newCompiledEval(t *Compiled) *compiledEval {
	ws := core.NewWorkspace(t.n)
	hasViews := false
	for i, ns := range t.problem.Scenario.Nodes {
		ws.Nodes[i].Name = ns.Name
		ws.Nodes[i].Platform = ns.Platform
		ws.Nodes[i].SampleFreq = ns.SampleFreq
		if t.views[i] != nil {
			hasViews = true
		}
	}
	if hasViews {
		ws.Net.NodeMACs = make([]core.MAC, t.n)
	}
	ws.Net.Theta = t.theta
	copy(ws.PhiIn, t.phiIn)
	return &compiledEval{t: t, ws: ws}
}

// NumObjectives implements dse.Evaluator.
func (e *compiledEval) NumObjectives() int { return 3 }

// Evaluate implements dse.Evaluator.
func (e *compiledEval) Evaluate(c dse.Config) (dse.Objectives, error) {
	objs := make(dse.Objectives, 3)
	if err := e.EvaluateInto(c, objs); err != nil {
		return nil, err
	}
	return objs, nil
}

// EvaluateInto implements dse.IntoEvaluator: table lookups re-point the
// workspace at the configuration's pre-built MAC, views and applications,
// then the shared core arithmetic runs on reused scratch. Error order
// matches the reference evaluator: base MAC first, then per-node checks in
// node order.
func (e *compiledEval) EvaluateInto(c dse.Config, objs dse.Objectives) error {
	t := e.t
	p := t.problem
	if !p.space.Valid(c) {
		return fmt.Errorf("scenario %q: invalid config %v", p.Scenario.Name, c)
	}
	mb := t.base[(c[0]*t.nGap+c[1])*t.nPay+c[2]]
	if mb.Err != nil {
		return mb.Err
	}
	vi := c[0]*t.nGap + c[1] // view grid index (payload axis collapsed)
	ws := e.ws
	for i := 0; i < t.n; i++ {
		cr := 0
		if g := p.crGene[i]; g >= 0 {
			cr = c[g]
		}
		ws.Nodes[i].App = t.apps[i][cr]
		ws.Nodes[i].MicroFreq = t.freqs[i][c[p.fGene[i]]]
		ws.PhiOut[i] = t.phiOut[i][cr]
		ws.Quality[i] = t.quality[i][cr]
		if t.views[i] != nil {
			mv := t.views[i][vi]
			if mv.Err != nil {
				return mv.Err
			}
			ws.Net.NodeMACs[i] = mv.MAC
		}
	}
	ws.Net.MAC = mb.MAC
	return ws.Evaluate(objs)
}
