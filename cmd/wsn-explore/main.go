// Command wsn-explore runs a multi-objective design-space exploration of a
// registered scenario with the analytical model — the paper's end-to-end
// use case generalized to heterogeneous workloads. It supports the full
// three-metric model or the energy/delay-only baseline view, with NSGA-II,
// simulated annealing or random search.
//
// Example:
//
//	wsn-explore -list-scenarios
//	wsn-explore -scenario dense-gts -algo nsga2 -pop 96 -gen 60 -workers 8
//	wsn-explore -scenario athletes -objectives baseline -algo mosa -iters 6000
//	wsn-explore -csv front.csv
//
// Generated scenario families (see -list-families) register hundreds of
// scenarios at once; a member can also be addressed directly and its
// family is enabled on demand:
//
//	wsn-explore -family all -list-scenarios
//	wsn-explore -scenario chipset-sweep/iris-n5-homo-long-uniform
//
// With -warm-start the search is seeded from prior fronts archived by
// wsn-serve — either a result directory or a live server URL:
//
//	wsn-explore -scenario ecg-ward -warm-start /var/lib/wsndse/results
//	wsn-explore -scenario ecg-ward -warm-start http://localhost:8080
package main

import (
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"wsndse/internal/baseline"
	"wsndse/internal/casestudy"
	"wsndse/internal/cliutil"
	"wsndse/internal/dse"
	"wsndse/internal/scenario"
	"wsndse/internal/service"
)

func main() {
	var (
		scenarioName = flag.String("scenario", "ecg-ward", "registered scenario to explore (see -list-scenarios)")
		familySpec   = flag.String("family", "", "enable scenario families first: a name, comma list, or 'all' (see -list-families)")
		list         = flag.Bool("list-scenarios", false, "list registered scenarios and exit")
		listFamilies = flag.Bool("list-families", false, "list scenario families and their axes, then exit")
		algo         = flag.String("algo", "nsga2", "search algorithm: nsga2 | mosa | random")
		objectives   = flag.String("objectives", "full", "evaluator: full (energy, quality, delay) | baseline (energy, delay)")
		pop          = flag.Int("pop", 96, "NSGA-II population size")
		gen          = flag.Int("gen", 60, "NSGA-II generations")
		iters        = flag.Int("iters", 6000, "MOSA iterations / random-search budget")
		seed         = flag.Int64("seed", 17, "search seed")
		warmStart    = flag.String("warm-start", "", "seed the search from prior fronts: a wsn-serve result directory or server URL")
		workers      = flag.Int("workers", 0, "evaluation workers (<= 0: GOMAXPROCS); fronts are identical at any count")
		progress     = flag.Bool("progress", false, "print per-generation progress to stderr")
		csvPath      = flag.String("csv", "", "write the front to this CSV file")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with `go tool pprof`)")
		memProfile   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stop, err := cliutil.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fail(err)
	}
	stopProfiles = stop
	defer stop()

	if *listFamilies {
		cliutil.PrintFamilies(os.Stdout)
		return
	}
	if _, err := cliutil.EnableFamilies(*familySpec); err != nil {
		fail(err)
	}
	if *list {
		listScenarios()
		return
	}

	sc, err := cliutil.LookupScenario(*scenarioName)
	if err != nil {
		fail(err)
	}
	problem, err := scenario.NewProblem(sc, casestudy.DefaultCalibration())
	if err != nil {
		fail(err)
	}
	// The compiled pipeline: all object construction amortized out of the
	// evaluation hot loop, bit-identical to the reference evaluator.
	compiled, err := problem.Compile()
	if err != nil {
		fail(err)
	}
	var eval dse.Evaluator
	switch *objectives {
	case "full":
		eval = compiled.Evaluator()
	case "baseline":
		// The application-blind (energy, delay) view: the Fig. 5
		// baseline over this scenario.
		eval = baseline.New(compiled)
	default:
		fail(fmt.Errorf("unknown objectives %q", *objectives))
	}

	fmt.Printf("scenario %s: %d nodes, %.3g configurations, %d objectives, algorithm %s\n",
		sc.Name, len(sc.Nodes), problem.Space().Size(), eval.NumObjectives(), *algo)

	// SIGINT cancels the search at its next generation/segment boundary;
	// the partial front accumulated so far is printed (and written to CSV)
	// instead of being lost.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()
	start := time.Now()
	opts := dse.Options{Context: ctx}
	if *progress {
		opts.Stats = func(st dse.Stats) {
			fmt.Fprintf(os.Stderr, "%s %d/%d: front=%d evaluated=%d (%.3g evals/s)\n",
				st.Algorithm, st.Step, st.TotalSteps, len(st.Front), st.Evaluated,
				float64(st.Evaluated)/time.Since(start).Seconds())
		}
	}
	if *warmStart != "" {
		if *algo != "nsga2" && *algo != "mosa" {
			fmt.Fprintf(os.Stderr, "wsn-explore: -warm-start only seeds nsga2/mosa, ignored for %s\n", *algo)
		} else {
			src, closeSrc, err := openWarmStartSource(*warmStart)
			if err != nil {
				fail(err)
			}
			objNames := service.ObjectivesFull
			if *objectives == "baseline" {
				objNames = service.ObjectivesBaseline
			}
			seeds, info, err := service.ResolveWarmStart(src, service.WarmStartAuto,
				sc.Fingerprint(), objNames, *algo, sc.Name, problem.Space())
			closeSrc()
			if err != nil {
				fail(err)
			}
			if info == nil {
				fmt.Println("warm start: no prior front for this scenario/objective set, running cold")
			} else {
				kind := "exact prior front"
				if !info.Exact {
					kind = "family-sibling fronts"
				}
				fmt.Printf("warm start: %d seed points from %s (result versions %v)\n",
					info.SeedPoints, kind, info.Sources)
				opts.SeedPoints = seeds
			}
		}
	}
	var res *dse.Result
	switch *algo {
	case "nsga2":
		res, err = dse.NSGA2Opts(problem.Space(), eval, dse.NSGA2Config{
			PopulationSize: *pop, Generations: *gen, Seed: *seed, Workers: *workers,
		}, opts)
	case "mosa":
		res, err = dse.MOSAOpts(problem.Space(), eval, dse.MOSAConfig{
			Iterations: *iters, Seed: *seed, Workers: *workers,
		}, opts)
	case "random":
		res, err = dse.RandomSearchOpts(problem.Space(), eval, *iters, *seed, *workers, opts)
	default:
		err = fmt.Errorf("unknown algorithm %q", *algo)
	}
	interrupted := errors.Is(err, context.Canceled) && res != nil
	if err != nil && !interrupted {
		fail(err)
	}
	wall := time.Since(start)
	if interrupted {
		fmt.Println("interrupted: flushing the partial front explored so far")
	}

	fmt.Printf("evaluated %d distinct configurations (%d infeasible) in %v (%.3g evals/s)\n",
		res.Evaluated, res.Infeasible, wall.Round(time.Millisecond),
		float64(res.Evaluated)/wall.Seconds())
	fmt.Printf("Pareto front: %d points\n\n", len(res.Front))
	if eval.NumObjectives() == 3 {
		fmt.Printf("%-12s %-10s %-10s  configuration\n", "energy_mW", "quality", "delay_ms")
	} else {
		fmt.Printf("%-12s %-10s %-10s  configuration\n", "energy_mW", "delay_ms", "")
	}
	for _, p := range res.Front {
		params, err := problem.Decode(p.Config)
		if err != nil {
			fail(err)
		}
		switch eval.NumObjectives() {
		case 3:
			fmt.Printf("%-12.4f %-10.2f %-10.1f  BO=%d SO=%d L=%d CR=%v f=%v\n",
				p.Objs[0]*1e3, p.Objs[1], p.Objs[2]*1e3,
				params.BeaconOrder, params.SuperframeOrder, params.PayloadBytes, params.CR, params.MicroFreq)
		default:
			fmt.Printf("%-12.4f %-10.1f %-10s  BO=%d SO=%d L=%d CR=%v f=%v\n",
				p.Objs[0]*1e3, p.Objs[1]*1e3, "",
				params.BeaconOrder, params.SuperframeOrder, params.PayloadBytes, params.CR, params.MicroFreq)
		}
	}

	if *csvPath != "" {
		if err := writeCSV(*csvPath, res.Front, eval.NumObjectives()); err != nil {
			fail(err)
		}
		fmt.Printf("\nfront written to %s\n", *csvPath)
	}
}

// openWarmStartSource resolves the -warm-start flag into a prior-front
// lookup: an http(s) URL means a running wsn-serve instance, anything
// else a result directory previously written with `wsn-serve -results-dir`.
func openWarmStartSource(loc string) (service.ResultLookup, func(), error) {
	if strings.HasPrefix(loc, "http://") || strings.HasPrefix(loc, "https://") {
		return service.NewClient(loc), func() {}, nil
	}
	s, err := service.NewStore(service.StoreConfig{Dir: loc})
	if err != nil {
		return nil, nil, err
	}
	return s, func() { s.Close() }, nil
}

func listScenarios() {
	fmt.Printf("%-44s %-6s %-10s %s\n", "name", "nodes", "space", "description")
	for _, sc := range scenario.List() {
		size := "?"
		if p, err := scenario.NewProblem(sc, casestudy.DefaultCalibration()); err == nil {
			size = fmt.Sprintf("%.3g", p.Space().Size())
		}
		fmt.Printf("%-44s %-6d %-10s %s\n", sc.Name, len(sc.Nodes), size, sc.Description)
		fmt.Printf("%-44s %-6s %-10s stress: %s\n", "", "", "", sc.Stress)
	}
}

func writeCSV(path string, front []dse.Point, objectives int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	defer w.Flush()
	header := []string{"energy_W", "delay_s"}
	if objectives == 3 {
		header = []string{"energy_W", "quality", "delay_s"}
	}
	header = append(header, "config")
	if err := w.Write(header); err != nil {
		return err
	}
	for _, p := range front {
		row := make([]string, 0, len(p.Objs)+1)
		for _, o := range p.Objs {
			row = append(row, strconv.FormatFloat(o, 'g', 8, 64))
		}
		row = append(row, fmt.Sprint(p.Config))
		if err := w.Write(row); err != nil {
			return err
		}
	}
	return w.Error()
}

// stopProfiles flushes any active -cpuprofile/-memprofile; fail runs it
// so error exits do not truncate a profile mid-write.
var stopProfiles = func() {}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "wsn-explore:", err)
	stopProfiles()
	os.Exit(1)
}
