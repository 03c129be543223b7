// Command wsn-sim runs the packet-level simulator and reports measured
// per-node energy, delays and traffic — the "ground truth" side of the
// model-accuracy comparisons. It simulates either an explicit case-study
// configuration (-bo/-so/-payload/-cr/-fuc) or a registered scenario at a
// deterministic feasible configuration (-scenario), including the
// scenario's heterogeneous node mix and traffic profile.
//
// Example:
//
//	wsn-sim -bo 3 -so 2 -payload 48 -cr 0.23 -fuc 8M -duration 60
//	wsn-sim -cr 0.29 -fuc 8M -arrival block -per 0.1
//	wsn-sim -scenario mixed-ward -duration 120
//	wsn-sim -scenario mobile-relay/n4-corridor-fast-z1
//	wsn-sim -family all -list-scenarios
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"wsndse/internal/app"
	"wsndse/internal/casestudy"
	"wsndse/internal/cliutil"
	"wsndse/internal/scenario"
	"wsndse/internal/sim"
	"wsndse/internal/units"
)

func main() {
	var (
		scenarioName = flag.String("scenario", "", "simulate a registered scenario at a feasible configuration (overrides -bo/-so/-payload/-cr/-fuc/-nodes)")
		familySpec   = flag.String("family", "", "enable scenario families first: a name, comma list, or 'all' (see -list-families)")
		list         = flag.Bool("list-scenarios", false, "list registered scenarios and exit")
		listFamilies = flag.Bool("list-families", false, "list scenario families and their axes, then exit")
		bo           = flag.Int("bo", 3, "beacon order (BCO)")
		so           = flag.Int("so", 2, "superframe order (SFO)")
		payload      = flag.Int("payload", 48, "MAC payload per frame, bytes")
		nodes        = flag.Int("nodes", app.DefaultNodes, "number of nodes (first half DWT, rest CS)")
		cr           = flag.String("cr", "0.23", "compression ratio: one value or per-node comma list")
		fuc          = flag.String("fuc", "8M", "µC frequency: one value or per-node comma list")
		duration     = flag.Float64("duration", 60, "simulated seconds")
		seed         = flag.Int64("seed", 1, "simulation seed")
		arrival      = flag.String("arrival", "uniform", "traffic model: uniform | block")
		per          = flag.Float64("per", 0, "packet error rate in [0,1)")
	)
	flag.Parse()

	if *listFamilies {
		cliutil.PrintFamilies(os.Stdout)
		return
	}
	if _, err := cliutil.EnableFamilies(*familySpec); err != nil {
		fail(err)
	}
	if *list {
		for _, sc := range scenario.List() {
			fmt.Printf("%-44s %d nodes — %s\n", sc.Name, len(sc.Nodes), sc.Description)
		}
		return
	}

	// Only flags the user actually set may override a scenario's traffic
	// profile.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	var cfg sim.Config
	if *scenarioName != "" {
		sc, err := cliutil.LookupScenario(*scenarioName)
		if err != nil {
			fail(err)
		}
		problem, err := scenario.NewProblem(sc, casestudy.DefaultCalibration())
		if err != nil {
			fail(err)
		}
		params, err := problem.FeasibleParams()
		if err != nil {
			fail(err)
		}
		dur := sc.SimDuration
		if explicit["duration"] {
			dur = units.Seconds(*duration)
		}
		runSeed := sc.SimSeed
		if explicit["seed"] {
			runSeed = *seed
		}
		cfg, err = problem.SimConfig(params, dur, runSeed)
		if err != nil {
			fail(err)
		}
		fmt.Printf("scenario %s at BO=%d SO=%d L=%d CR=%v\n",
			sc.Name, params.BeaconOrder, params.SuperframeOrder, params.PayloadBytes, params.CR)
	} else {
		params, err := cliutil.BuildParams(*bo, *so, *payload, *nodes, *cr, *fuc)
		if err != nil {
			fail(err)
		}
		cfg, err = params.SimConfig(casestudy.DefaultCalibration(), units.Seconds(*duration), *seed)
		if err != nil {
			fail(err)
		}
	}
	if explicit["per"] || *scenarioName == "" {
		cfg.PacketErrorRate = *per
	}
	if explicit["arrival"] || *scenarioName == "" {
		switch *arrival {
		case "uniform":
			cfg.Arrival = sim.ArrivalUniform
		case "block":
			cfg.Arrival = sim.ArrivalBlock
		default:
			fail(fmt.Errorf("unknown arrival model %q", *arrival))
		}
	}

	if cfg.Arrival == sim.ArrivalDefault {
		cfg.Arrival = sim.ArrivalUniform // what the simulator resolves it to
	}

	start := time.Now()
	res, err := sim.Run(cfg)
	if err != nil {
		fail(err)
	}
	wall := time.Since(start)

	fmt.Printf("simulated %v: %d beacons, stable=%v, arrival=%v, PER=%g\n",
		res.Duration, res.BeaconsSent, res.Stable, cfg.Arrival, cfg.PacketErrorRate)
	fmt.Printf("engine: %d events in %v (%.3g events/s, %.0fx real time)\n",
		res.Events, wall.Round(time.Microsecond),
		float64(res.Events)/wall.Seconds(), float64(res.Duration)/wall.Seconds())
	fmt.Printf("%-12s %10s %9s %9s %9s %10s %7s %7s %9s %9s\n",
		"node", "total", "sensor", "µC", "radio", "delivered", "pkts", "retry", "delay avg", "delay max")
	for _, n := range res.Nodes {
		fmt.Printf("%-12s %10v %9v %9v %9v %9dB %7d %7d %9v %9v\n",
			n.Name, n.Power.Total, n.Power.Sensor, n.Power.Micro, n.Power.Radio,
			n.BytesDelivered, n.PacketsSent, n.Retries, n.Delay.Mean, n.Delay.Max)
	}
	fmt.Printf("\nradio residency of %s: ", res.Nodes[0].Name)
	for _, st := range []sim.RadioState{sim.StateSleep, sim.StateIdle, sim.StateRamp, sim.StateRx, sim.StateTx} {
		fmt.Printf("%v=%.2f%% ", st, float64(res.Nodes[0].RadioStateTime[st])/float64(res.Duration)*100)
	}
	fmt.Println()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "wsn-sim:", err)
	os.Exit(1)
}
