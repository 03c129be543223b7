// Command wsn-model evaluates one case-study configuration with the
// analytical model: per-node energy breakdown (Eqs. 3–7), the transmission
// interval assignment (Eqs. 1–2), delay bounds (Eq. 9) and the combined
// network metrics (Eq. 8).
//
// Example:
//
//	wsn-model -bo 3 -so 2 -payload 48 -cr 0.23 -fuc 8M
//	wsn-model -cr 0.17,0.23,0.29,0.17,0.23,0.38 -fuc 8M,8M,4M,1M,2M,8M
package main

import (
	"flag"
	"fmt"
	"os"

	"wsndse/internal/app"
	"wsndse/internal/casestudy"
	"wsndse/internal/cliutil"
	"wsndse/internal/core"
)

func main() {
	var (
		bo      = flag.Int("bo", 3, "beacon order (BCO)")
		so      = flag.Int("so", 2, "superframe order (SFO)")
		payload = flag.Int("payload", 48, "MAC payload per frame, bytes")
		nodes   = flag.Int("nodes", app.DefaultNodes, "number of nodes (first half DWT, rest CS)")
		cr      = flag.String("cr", "0.23", "compression ratio: one value or per-node comma list")
		fuc     = flag.String("fuc", "8M", "µC frequency: one value or per-node comma list (k/M suffixes)")
		theta   = flag.Float64("theta", 0.5, "balance weight ϑ of the network metrics (Eq. 8)")
		battery = flag.Float64("battery", 450, "battery capacity in mAh for lifetime estimates (0 disables)")
	)
	flag.Parse()

	params, err := cliutil.BuildParams(*bo, *so, *payload, *nodes, *cr, *fuc)
	if err != nil {
		fail(err)
	}
	net, err := params.Network(casestudy.DefaultCalibration(), *theta)
	if err != nil {
		fail(err)
	}
	ev, err := net.Evaluate()
	if err != nil {
		if core.IsInfeasible(err) {
			fmt.Printf("configuration infeasible: %v\n", err)
			os.Exit(2)
		}
		fail(err)
	}

	fmt.Printf("χ_mac: BO=%d SO=%d payload=%dB   ϑ=%g\n",
		params.BeaconOrder, params.SuperframeOrder, params.PayloadBytes, *theta)
	fmt.Printf("%-8s %-5s %-8s %9s %9s %9s %9s %10s %6s %9s\n",
		"node", "CR", "f_µC", "sensor", "µC", "memory", "radio", "total", "slots", "delay≤")
	for i, n := range net.Nodes {
		eb := ev.PerNode[i]
		fmt.Printf("%-8s %-5.2f %-8v %9v %9v %9v %9v %10v %6d %9v\n",
			n.Name, params.CR[i], n.MicroFreq,
			eb.Sensor, eb.Micro, eb.Memory, eb.Radio, eb.Total,
			ev.Assignment.K[i], secondsOf(ev.PerNodeDelay[i]))
	}
	fmt.Printf("\nEq. 2 budget: Σ Δtx = %.4f s/s, Δcontrol = %.4f, idle = %.4f (capacity %.4f)\n",
		ev.Assignment.Used, ev.Assignment.ControlTime, ev.Assignment.Idle, ev.Assignment.Capacity)
	fmt.Printf("network metrics (Eq. 8): energy %v, PRD %.2f%%, delay %v\n",
		ev.Energy, ev.Quality, ev.Delay)

	if *battery > 0 {
		b := core.ShimmerBattery()
		b.CapacityMilliampHours = *battery
		nl, err := ev.Lifetimes(b)
		if err != nil {
			fail(err)
		}
		fmt.Printf("lifetime on %.0f mAh: first death %.1f days, last %.1f days, imbalance %.1f%%\n",
			*battery, nl.FirstDeath.Hours()/24, nl.LastDeath.Hours()/24, nl.Imbalance*100)
	}
}

func secondsOf(v float64) string {
	return fmt.Sprintf("%.1fms", v*1e3)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "wsn-model:", err)
	os.Exit(1)
}
