// Package core implements the paper's primary contribution: a system-level
// analytical model of wireless body sensor networks that evaluates a full
// network configuration — energy, application quality and delay — in
// microseconds, fast enough to drive design-space exploration where a
// packet-level simulation would take minutes per point.
//
// The model is layered exactly as in the paper:
//
//   - an abstract MAC characterization (§3.2): data overhead Ω, control
//     message volumes Ψ, timing overhead Δ_control and a base time unit δ,
//     plus the transmission-interval assignment problem of Eqs. 1–2;
//   - a node model (§3.3): sensing (Eq. 3), application (the h/k/e triple
//     from the app package), microcontroller (Eq. 4), memory (Eq. 5) and
//     radio (Eq. 6) energies composed into E_node (Eq. 7);
//   - network-level metrics (§3.4): mean-plus-dispersion combinations
//     (Eq. 8) of per-node energy, quality and delay.
//
// All flows are per-second normalized: stream rates in bytes per second,
// energies in joules per second (watts), transmission intervals in seconds
// of channel time per second of wall-clock time.
package core

import (
	"errors"
	"fmt"

	"wsndse/internal/units"
)

// MAC is the abstract medium-access characterization of §3.2. A concrete
// MAC (the beacon-enabled IEEE 802.15.4 of the case study, a generic TDMA,
// or the statistical CSMA/CA extension) maps its protocol parameters χ_mac
// onto these quantities.
type MAC interface {
	// Name identifies the protocol.
	Name() string

	// DataOverhead is Ω(φ_out, χ_mac): the extra bytes per second
	// (headers, checksums) needed to carry a φ_out B/s output stream.
	DataOverhead(phiOut units.BytesPerSecond) units.BytesPerSecond

	// ControlDown is Ψ_c→n(χ_mac): control traffic received by a node
	// (beacons, acknowledgements) in B/s, given the node's output rate.
	ControlDown(phiOut units.BytesPerSecond) units.BytesPerSecond

	// ControlUp is Ψ_n→c(χ_mac): control traffic sent by a node beyond
	// its data stream, in B/s.
	ControlUp(phiOut units.BytesPerSecond) units.BytesPerSecond

	// ControlTime is the structural part of Δ_control(χ_mac): the
	// fraction of every second during which the channel is unavailable
	// to node payload transmissions (beacons, contention periods,
	// inactive portions). Together with unallocated capacity it
	// completes Eq. 2: Σ Δ_tx + Δ_control = 1.
	ControlTime() float64

	// Quantum is the per-second transmission-time quantum δ: assigned
	// intervals Δ_tx are integer multiples of it (Eq. 1's k·δ after
	// per-second normalization).
	Quantum() float64

	// Capacity bounds Σ Δ_tx, the total per-second channel time
	// assignable to nodes (e.g. 7/16 · SD/BI for 802.15.4 GTSs).
	Capacity() float64

	// TxTime is T_tx(φ_out + Ω): the seconds of channel time per second
	// needed to deliver the node's stream, including every per-packet
	// cost the physical radio imposes inside the node's interval
	// (PHY encapsulation, turnaround, acknowledgement, inter-frame
	// spacing).
	TxTime(phiOut units.BytesPerSecond) float64

	// AirOverheadUp and AirOverheadDown are the PHY encapsulation rates
	// (preamble/SFD/PHR bytes per second) transmitted by, respectively
	// received at, the node. The paper folds these into its calibrated
	// per-bit energies; with an explicit physical layer they appear as
	// separate terms of the radio energy.
	AirOverheadUp(phiOut units.BytesPerSecond) units.BytesPerSecond
	AirOverheadDown(phiOut units.BytesPerSecond) units.BytesPerSecond
}

// QuantaFloor is implemented by MACs whose protocol imposes a minimum
// interval size beyond the average-rate demand of Eq. 1 — for 802.15.4
// GTSs, a window must fit at least one whole packet service. Assign
// consults it when present.
type QuantaFloor interface {
	MinQuanta(phiOut units.BytesPerSecond) int
}

// DelayBound is implemented by MACs that can bound the data delay d(χ_mac)
// of §3.2 analytically, like the 802.15.4 GTS worst case of Eq. 9.
type DelayBound interface {
	// WorstCaseDelay bounds the delay of node n's data given every
	// node's assigned transmission interval (per-second normalized).
	// The result is in seconds.
	WorstCaseDelay(deltaTx []float64, n int) units.Seconds
}

// InfeasibleError marks a configuration that violates a physical or
// protocol constraint: duty cycle above 100 %, GTS capacity exhausted,
// memory footprint beyond the platform, and so on. The DSE layer treats
// these as constraint violations rather than hard failures.
//
// A quarter or more of the configurations a search visits are infeasible,
// and the search never reads why, so the three hot checks (duty cycle,
// RAM, GTS capacity) record their raw operands and Error formats them
// only when called. Cold callers use Infeasible.
type InfeasibleError struct {
	kind   infeasibleKind
	reason string      // formatted: the text Infeasible built
	name   string      // duty, RAM: node name; capacity: MAC name
	app    string      // duty: application name
	value  float64     // duty: duty cycle; RAM: working set [B]; capacity: used [s/s]
	limit  float64     // capacity: capacity [s/s]
	freq   units.Hertz // duty: f_µC
	count  int         // RAM: RAM size [B]; capacity: number of nodes
}

type infeasibleKind uint8

const (
	formatted infeasibleKind = iota
	dutyOverrun
	ramOverrun
	capacityOverrun
)

// Error implements the error interface.
func (e *InfeasibleError) Error() string {
	var reason string
	switch e.kind {
	case dutyOverrun:
		reason = fmt.Sprintf("node %q: application %q duty cycle %.1f%% exceeds 100%% at f_µC=%v",
			e.name, e.app, e.value*100, e.freq)
	case ramOverrun:
		reason = fmt.Sprintf("node %q: application working set %.0f B exceeds %d B RAM",
			e.name, e.value, e.count)
	case capacityOverrun:
		reason = fmt.Sprintf("transmission demand %.6f s/s exceeds MAC %q capacity %.6f s/s (N=%d nodes)",
			e.value, e.name, e.limit, e.count)
	default:
		reason = e.reason
	}
	return "core: infeasible configuration: " + reason
}

// Infeasible builds an InfeasibleError with formatting.
func Infeasible(format string, args ...any) error {
	return &InfeasibleError{kind: formatted, reason: fmt.Sprintf(format, args...)}
}

// IsInfeasible reports whether err marks an infeasible configuration.
func IsInfeasible(err error) bool {
	var ie *InfeasibleError
	return errors.As(err, &ie)
}
