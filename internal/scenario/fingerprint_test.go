package scenario_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"wsndse/internal/scenario"
	"wsndse/internal/scenario/family"
	"wsndse/internal/sim"
)

// enableFamilies registers the chipset-sweep and mobile-relay members, so
// the fingerprint tests cover generated scenarios as well as the built-ins.
func enableFamilies(t *testing.T) {
	t.Helper()
	for _, name := range []string{"chipset-sweep", "mobile-relay"} {
		if _, err := family.Enable(name); err != nil {
			t.Fatalf("Enable(%s): %v", name, err)
		}
	}
}

// TestFingerprintStability pins that a fingerprint is a pure function of
// scenario content: rebuilding the same scenario yields the same hash, and
// the registry's deep clones preserve it (the Lookup-after-Register
// round-trip the family generators rely on). FingerprintOf, the stored
// hash per registered name, must agree with a fresh hash of every entry.
func TestFingerprintStability(t *testing.T) {
	a, b := scenario.ECGWard(), scenario.ECGWard()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("two builds of the same scenario fingerprint differently")
	}
	if got, ok := scenario.Lookup("ecg-ward"); !ok || got.Fingerprint() != a.Fingerprint() {
		t.Fatal("registry round-trip changed the fingerprint")
	}
	if scenario.Clone(a).Fingerprint() != a.Fingerprint() {
		t.Fatal("clone changed the fingerprint")
	}

	enableFamilies(t)
	for _, name := range scenario.Names() {
		sc, _ := scenario.Lookup(name)
		fp, ok := scenario.FingerprintOf(name)
		if !ok || fp != sc.Fingerprint() {
			t.Fatalf("FingerprintOf(%s) = %q, %v; want %q", name, fp, ok, sc.Fingerprint())
		}
	}
	if fp, ok := scenario.FingerprintOf("no-such-scenario"); fp != "" || ok {
		t.Fatalf(`FingerprintOf(unknown) = %q, %v; want "", false`, fp, ok)
	}
}

// TestFingerprintGolden pins the fingerprint bytes. Stored results are
// keyed by fingerprint (service.ResultKey), so any change to the canonical
// encoding orphans every archived front; such a change must bump
// fingerprintVersion and these values together.
func TestFingerprintGolden(t *testing.T) {
	enableFamilies(t)
	golden := map[string]string{
		"ecg-ward":                             "92adeb0785f1d7fe7d299b5aee98c2a06bfa4d6dbbc89f70731ba696c69e533d",
		"mixed-ward":                           "869e638f35bd5537f9d3a25793b00920b5858a0de93dcf7f23333f779d825bbd",
		"athletes":                             "1b41b38eb3a68f644d11e7b9185ff0a86f885bc416a92427209394bd2414351c",
		"dense-gts":                            "a95d19a06fc082dfe3c838f1ae03edc129abff2a8f706dfb576c76515dccd9e3",
		"raw-stream":                           "d57335716806664dad64d14c6d7973eb40e834881bd284bb570f9e5eeadaf202",
		"chipset-sweep/z1-n4-relay-long-block": "2aa6429d28982c177c391f21de3420c68521e6d294aa6b70d45b9c1b6b65dbb8",
		"mobile-relay/n4-corridor-fast-z1":     "d2e63c959db5d6036833da5b93f3fe7d02ba3e5daabb6a58800bccc5cad1826b",
	}
	for name, want := range golden {
		sc, ok := scenario.Lookup(name)
		if !ok {
			t.Errorf("%s not registered", name)
			continue
		}
		if got := sc.Fingerprint(); got != want {
			t.Errorf("%s: Fingerprint() = %s, want %s", name, got, want)
		}
		if got, _ := scenario.FingerprintOf(name); got != want {
			t.Errorf("%s: FingerprintOf = %s, want %s", name, got, want)
		}
	}
	relay, _ := scenario.Lookup("mobile-relay/n4-corridor-fast-z1")
	if len(relay.Nodes[len(relay.Nodes)-1].Link) == 0 {
		t.Error("mobile-relay golden member has no link schedule to pin")
	}
}

var coldSeq atomic.Int64

// TestFingerprintOfConcurrent races 16 first readers of one registered
// name: the hash is computed once and every reader sees the same value.
func TestFingerprintOfConcurrent(t *testing.T) {
	sc := scenario.ECGWard()
	sc.Name = fmt.Sprintf("fingerprint-of-cold-%d", coldSeq.Add(1))
	if err := scenario.Register(sc); err != nil {
		t.Fatal(err)
	}
	const readers = 16
	got := make([]string, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			fp, ok := scenario.FingerprintOf(sc.Name)
			if !ok {
				t.Errorf("FingerprintOf(%s) missing", sc.Name)
			}
			got[i] = fp
		}(i)
	}
	close(start)
	wg.Wait()
	want := sc.Fingerprint()
	for i, fp := range got {
		if fp != want {
			t.Fatalf("reader %d got %q, want %q", i, fp, want)
		}
	}
}

// TestFingerprintSensitivity checks that every semantic field class moves
// the hash: MAC axes, node knobs, platform coefficients, traffic, link
// schedules — while pure labels (Name, Description, Stress) do not.
func TestFingerprintSensitivity(t *testing.T) {
	base := scenario.ECGWard()
	ref := base.Fingerprint()

	mutations := map[string]func(*scenario.Scenario){
		"beacon orders": func(s *scenario.Scenario) { s.BeaconOrders[0]++ },
		"payload axis":  func(s *scenario.Scenario) { s.Payloads = s.Payloads[:len(s.Payloads)-1] },
		"theta":         func(s *scenario.Scenario) { s.Theta += 0.25 },
		"sim seed":      func(s *scenario.Scenario) { s.SimSeed++ },
		"sim duration":  func(s *scenario.Scenario) { s.SimDuration *= 2 },
		"traffic":       func(s *scenario.Scenario) { s.Traffic.PacketErrorRate = 0.01 },
		"node CR grid":  func(s *scenario.Scenario) { s.Nodes[0].CRs[0] += 1e-9 },
		"node payload":  func(s *scenario.Scenario) { s.Nodes[1].PayloadBytes = 32 },
		"platform coefficient": func(s *scenario.Scenario) {
			s.Nodes[0].Platform.Micro.Alpha1 *= 1.000001
		},
		"radio chip": func(s *scenario.Scenario) {
			s.Nodes[0].Platform.Radio.TxPower *= 1.01
		},
		"link schedule": func(s *scenario.Scenario) {
			s.Nodes[0].Link = []sim.LinkPhase{{Start: 10, PER: 0.2}}
		},
		"node order": func(s *scenario.Scenario) {
			s.Nodes[0], s.Nodes[1] = s.Nodes[1], s.Nodes[0]
		},
	}
	for name, mutate := range mutations {
		s := scenario.Clone(base)
		mutate(&s)
		if s.Fingerprint() == ref {
			t.Errorf("mutating %s did not change the fingerprint", name)
		}
	}

	labels := scenario.Clone(base)
	labels.Name = "renamed"
	labels.Description = "other words"
	labels.Stress = "different stress"
	if labels.Fingerprint() != ref {
		t.Error("labels (Name/Description/Stress) must not affect the fingerprint")
	}
}
