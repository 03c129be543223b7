package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"strconv"

	"wsndse/internal/units"
)

// fingerprintVersion prefixes the canonical encoding, so any future change
// to the encoding (new fields, different float formatting) visibly changes
// every fingerprint instead of silently colliding with old ones.
const fingerprintVersion = "wsndse/scenario/v1"

// Fingerprint returns a content hash of the scenario: a hex SHA-256 over a
// canonical encoding of every field that affects what the scenario
// *means* — the node specs down to platform coefficients and link
// schedules, the explorable axes, the traffic profile, ϑ, and the default
// simulation duration and seed. Name, Description and Stress are labels,
// not content, and are excluded: two identically-parameterized family
// members registered under different names share a fingerprint, which is
// what makes the fingerprint useful for result caching and reproduction.
//
// The contract the registry tests pin: fingerprints are stable across
// processes (no map iteration, no addresses, exact float encoding), and
// Lookup-after-Register returns a scenario with an identical fingerprint
// (the registry's deep clones are content-preserving). Callers holding a
// registered name read FingerprintOf, which hashes each entry once.
func (s Scenario) Fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\nnodes %d\n", fingerprintVersion, len(s.Nodes))
	for _, ns := range s.Nodes {
		fmt.Fprintf(h, "node %s kind %d fs %s payload %d arrival %d\n",
			ns.Name, int(ns.Kind), hexFloat(float64(ns.SampleFreq)), ns.PayloadBytes, int(ns.Arrival))
		hashFloats(h, "crs", ns.CRs)
		hashHertz(h, "freqs", ns.MicroFreqs)
		hashPlatform(h, ns)
		fmt.Fprintf(h, "link %d\n", len(ns.Link))
		for _, ph := range ns.Link {
			fmt.Fprintf(h, "phase %s %s\n", hexFloat(float64(ph.Start)), hexFloat(ph.PER))
		}
	}
	hashInts(h, "bo", s.BeaconOrders)
	hashInts(h, "gap", s.SFOGaps)
	hashInts(h, "payloads", s.Payloads)
	fmt.Fprintf(h, "theta %s\n", hexFloat(s.Theta))
	fmt.Fprintf(h, "traffic %d %s %d\n",
		int(s.Traffic.Arrival), hexFloat(s.Traffic.PacketErrorRate), s.Traffic.BlockSamples)
	fmt.Fprintf(h, "sim %s %d\n", hexFloat(float64(s.SimDuration)), s.SimSeed)
	return hex.EncodeToString(h.Sum(nil))
}

// hashPlatform encodes the full hardware characterization: two platforms
// that differ in any calibrated coefficient are different workloads even
// if they share a name, and a recalibrated platform must change the
// fingerprint of every scenario built on it.
func hashPlatform(h hash.Hash, ns NodeSpec) {
	p := ns.Platform
	fmt.Fprintf(h, "platform %s adc %d\n", p.Name, p.ADCBits)
	hashFloats(h, "sensor", []float64{
		float64(p.Sensor.TransducerPower), float64(p.Sensor.Alpha1), float64(p.Sensor.Alpha0),
	})
	hashFloats(h, "micro", []float64{float64(p.Micro.Alpha1), float64(p.Micro.Alpha0)})
	hashFloats(h, "memory", []float64{
		float64(p.Memory.AccessTime), float64(p.Memory.AccessPower),
		float64(p.Memory.BitIdlePower), float64(p.Memory.SizeBytes),
	})
	hashHertz(h, "grid", p.MicroFreqs)
	r := p.Radio
	fmt.Fprintf(h, "radio %s dbm %d\n", r.Name, r.OutputDBm)
	hashFloats(h, "chip", []float64{
		float64(r.BitRate), float64(r.TxPower), float64(r.RxPower),
		float64(r.IdlePower), float64(r.SleepPower),
		float64(r.RampUpTime), float64(r.RampUpEnergy), float64(r.TurnaroundTime),
	})
}

// hexFloat encodes a float exactly ('x' is the lossless hex-mantissa
// form), so fingerprints never depend on decimal rounding.
func hexFloat(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }

func hashFloats(h hash.Hash, label string, xs []float64) {
	fmt.Fprintf(h, "%s %d", label, len(xs))
	for _, x := range xs {
		fmt.Fprintf(h, " %s", hexFloat(x))
	}
	fmt.Fprintln(h)
}

func hashHertz(h hash.Hash, label string, xs []units.Hertz) {
	fmt.Fprintf(h, "%s %d", label, len(xs))
	for _, x := range xs {
		fmt.Fprintf(h, " %s", hexFloat(float64(x)))
	}
	fmt.Fprintln(h)
}

func hashInts(h hash.Hash, label string, xs []int) {
	fmt.Fprintf(h, "%s %d", label, len(xs))
	for _, x := range xs {
		fmt.Fprintf(h, " %d", x)
	}
	fmt.Fprintln(h)
}
