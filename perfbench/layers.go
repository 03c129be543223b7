package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strings"
)

// metricsJSON is the benchmark's metric catalogue: every end-to-end and
// per-layer metric with its unit, and for each per-layer metric the
// end-to-end metrics it should move and the workloads it applies to.
//
//go:embed metrics.json
var metricsJSON []byte

type catalogue struct {
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// layerMetrics derives the per-layer metrics of a traced run. A metric
// with no samples on this workload (say, casestudy.eval_ns on a Manager
// workload) is reported as 0 and shown as n/a.
func layerMetrics(t *tracer, untraced, traced []passStats, mem memDelta) ([]metric, error) {
	var cat catalogue
	if err := json.Unmarshal(metricsJSON, &cat); err != nil {
		return nil, fmt.Errorf("metrics.json: %w", err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	perEval := func(ns, calls int64) (float64, bool) {
		return float64(ns) / float64(calls), calls > 0
	}
	ratio := func(a, b int64) (float64, bool) { return float64(a) / float64(b), b > 0 }
	med := func(xs []float64) (float64, bool) { return median(xs), len(xs) > 0 }
	avg := func(xs []float64) (float64, bool) { return mean(xs), len(xs) > 0 }
	shadowed := int64(t.shadowed)
	jobs := int64(mem.jobs)
	samples := map[string][]float64{
		"service.submit_us_p50": t.submitUs, "service.wake_us_p50": t.wakeUs,
		"service.queue_wait_ms_p50": t.queueMs, "service.run_ms_p50": t.runMs,
		"service.self_us_per_job": t.selfUs, "scenario.fingerprint_us": t.fingerprintUs,
		"scenario.compile_us": t.compileUs, "dse.search_ms_per_job": t.searchMs,
		"dse.boundary_ms_p50": t.boundaryMs, "dse.checkpoint_encode_us": t.encodeUs,
		"store.resolve_us_p50": t.resolveUs, "store.put_us_p50": t.putUs,
	}
	values := map[string]func() (float64, bool){
		"service.attempts_per_job":      func() (float64, bool) { return avg(t.attempts) },
		"scenario.kernel_ns_per_eval":   func() (float64, bool) { return perEval(t.kernelNs, t.kernelCalls) },
		"scenario.kernel_calls_per_job": func() (float64, bool) { return ratio(t.kernelCalls, shadowed) },
		"scenario.infeasible_ratio":     func() (float64, bool) { return ratio(t.infeasible, t.evaluated) },
		"dse.self_ns_per_eval": func() (float64, bool) {
			return perEval(t.searchNs-t.kernelNs, t.kernelCalls)
		},
		"dse.kernel_share":          func() (float64, bool) { return ratio(t.kernelNs, t.searchNs) },
		"dse.cache_lookups_per_job": func() (float64, bool) { return ratio(t.cacheLookups, shadowed) },
		"dse.cache_hit_ratio":       func() (float64, bool) { return ratio(t.cacheHits, t.cacheLookups) },
		"dse.checkpoint_bytes":      func() (float64, bool) { return avg(t.encodeBytes) },
		"store.seeded_ratio":        func() (float64, bool) { return ratio(int64(t.seeded), int64(t.warmRequested)) },
		"store.index_bytes":         func() (float64, bool) { return float64(t.indexBytes), t.indexBytes > 0 },
		"obs.bytes_per_job":         func() (float64, bool) { return ratio(t.obsBytes, t.obsJobs) },
		"casestudy.eval_ns":         func() (float64, bool) { return perEval(t.csNs, t.csCalls) },
		"experiments.fig5_evals":    func() (float64, bool) { return avg(t.fig5Evals) },
		"runtime.alloc_kb_per_job": func() (float64, bool) {
			return float64(mem.allocBytes) / 1024 / float64(jobs), jobs > 0
		},
		"runtime.mallocs_per_job": func() (float64, bool) { return float64(mem.mallocs) / float64(jobs), jobs > 0 },
		"runtime.gc_per_1k_jobs":  func() (float64, bool) { return 1000 * float64(mem.gcs) / float64(jobs), jobs > 0 },
		"trace.overhead_ratio": func() (float64, bool) {
			return median(passRates(traced)) / median(passRates(untraced)), len(traced) > 0 && len(untraced) > 0
		},
	}
	// paper-fig5 never reaches the scenario layer: its evaluator figures
	// come from the case-study evaluators and show as casestudy.eval_ns
	// and in the dse ratios.
	fig5 := len(t.fig5Evals) > 0
	var out []metric
	for _, m := range cat.PerLayer {
		var v float64
		var ok bool
		xs, isSample := samples[m.Name]
		switch {
		case isSample:
			v, ok = med(xs)
		case values[m.Name] != nil:
			v, ok = values[m.Name]()
		default:
			return nil, fmt.Errorf("metrics.json names %s, which the benchmark does not compute", m.Name)
		}
		if fig5 && strings.HasPrefix(m.Name, "scenario.") {
			ok = false
		}
		if !ok {
			out = append(out, metric{name: m.Name, unit: m.Unit, na: true})
			continue
		}
		out = append(out, metric{name: m.Name, unit: m.Unit, value: v, samples: xs})
	}
	return out, nil
}

// passRates is each pass's jobs per CPU-second.
func passRates(passes []passStats) []float64 {
	rates := make([]float64, len(passes))
	for i, p := range passes {
		rates[i] = float64(p.jobs) / p.cpu.Seconds()
	}
	return rates
}
