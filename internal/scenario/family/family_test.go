package family

import (
	"fmt"
	"strings"
	"testing"

	"wsndse/internal/app"
	"wsndse/internal/casestudy"
	"wsndse/internal/platform"
	"wsndse/internal/scenario"
	"wsndse/internal/units"
)

// TestEnableAllRegistersPopulation is the headline acceptance check: with
// both builtin families enabled, the scenario registry holds a generated
// population of at least 200 scenarios, every member is retrievable by its
// canonical name, and Enable is idempotent.
func TestEnableAllRegistersPopulation(t *testing.T) {
	added, err := EnableAll()
	if err != nil {
		t.Fatalf("EnableAll: %v", err)
	}
	if added < 195 {
		t.Fatalf("EnableAll registered %d members, want ≥ 195", added)
	}
	if n := len(scenario.List()); n < 200 {
		t.Fatalf("registry holds %d scenarios after EnableAll, want ≥ 200", n)
	}

	for _, f := range List() {
		for _, v := range f.Members() {
			name := f.MemberName(v)
			got, ok := scenario.Lookup(name)
			if !ok {
				t.Fatalf("member %s not in registry after EnableAll", name)
			}
			want, err := f.Scenario(v)
			if err != nil {
				t.Fatalf("rebuilding %s: %v", name, err)
			}
			if got.Fingerprint() != want.Fingerprint() {
				t.Fatalf("member %s: registry copy fingerprints differently from a rebuild", name)
			}
			fam, ok := FamilyOf(name)
			if !ok || fam != f.Name {
				t.Fatalf("FamilyOf(%s) = %q, %v", name, fam, ok)
			}
		}
	}

	again, err := EnableAll()
	if err != nil {
		t.Fatalf("second EnableAll: %v", err)
	}
	if again != 0 {
		t.Fatalf("second EnableAll registered %d more members, want 0", again)
	}
}

// TestMemberEnumeration pins the deterministic enumeration contract:
// Members walks the cartesian product row-major (last axis fastest), twice
// in a row identically, with unique canonical names.
func TestMemberEnumeration(t *testing.T) {
	f := Family{
		Name: "enum",
		Axes: []Axis{
			{Name: "a", Values: []string{"x", "y"}},
			{Name: "b", Values: []string{"1", "2", "3"}},
		},
		Build: func(Values) (scenario.Scenario, error) { return scenario.Scenario{}, nil },
	}
	if f.Size() != 6 {
		t.Fatalf("Size = %d, want 6", f.Size())
	}
	first, second := f.Members(), f.Members()
	wantOrder := []string{"enum/x-1", "enum/x-2", "enum/x-3", "enum/y-1", "enum/y-2", "enum/y-3"}
	for i, v := range first {
		if got := f.MemberName(v); got != wantOrder[i] {
			t.Fatalf("member %d = %s, want %s", i, got, wantOrder[i])
		}
		if got := f.MemberName(second[i]); got != wantOrder[i] {
			t.Fatalf("second enumeration diverged at %d: %s", i, got)
		}
	}

	for _, bf := range List() {
		seen := map[string]bool{}
		for _, v := range bf.Members() {
			name := bf.MemberName(v)
			if seen[name] {
				t.Fatalf("family %s enumerates duplicate member %s", bf.Name, name)
			}
			seen[name] = true
		}
		if len(seen) != bf.Size() {
			t.Fatalf("family %s enumerated %d members, Size says %d", bf.Name, len(seen), bf.Size())
		}
	}
}

// TestFamilyFeasibilityProperty is the GTS 7-slot cliff generalized to the
// whole population: every member of every registered family must admit at
// least one configuration the analytical model accepts. This is the
// property Enable screens for; here it is asserted directly, member by
// member, so a family edit that pushes members off the cliff names the
// exact member that fell.
func TestFamilyFeasibilityProperty(t *testing.T) {
	cal := casestudy.DefaultCalibration()
	for _, f := range List() {
		for _, v := range f.Members() {
			s, err := f.Scenario(v)
			if err != nil {
				t.Fatalf("building %s: %v", f.MemberName(v), err)
			}
			p, err := scenario.NewProblem(s, cal)
			if err != nil {
				t.Fatalf("problem for %s: %v", s.Name, err)
			}
			if _, err := p.FeasibleParams(); err != nil {
				t.Errorf("member %s: %v", s.Name, err)
			}
		}
	}
}

// TestEnableRejectsInfeasibleFamily is the negative control on the
// registration invariant: a family whose members cannot fit the superframe
// (raw streamers far past the GTS budget) must abort Enable, and none of
// its members may leak into the scenario registry.
func TestEnableRejectsInfeasibleFamily(t *testing.T) {
	bad := Family{
		Name:        "infeasible-test",
		Description: "raw streamers past any GTS budget",
		Axes:        []Axis{{Name: "nodes", Values: []string{"n6"}}},
		Build: func(v Values) (scenario.Scenario, error) {
			nodes := make([]scenario.NodeSpec, 6)
			for i := range nodes {
				nodes[i] = scenario.NodeSpec{
					Name:         fmt.Sprintf("raw-%d", i),
					Kind:         app.KindRaw,
					Platform:     platform.Shimmer(),
					SampleFreq:   4000, // 8 kB/s of raw samples per node
					MicroFreqs:   []units.Hertz{8e6},
					PayloadBytes: 102,
				}
			}
			return scenario.Scenario{
				Nodes:        nodes,
				BeaconOrders: []int{6}, // low duty cycle: tiny GTS capacity
				SFOGaps:      []int{4},
				Payloads:     []int{102},
				Theta:        0.5,
				SimDuration:  10,
				SimSeed:      1,
			}, nil
		},
	}
	if err := Register(bad); err != nil {
		t.Fatalf("registering control family: %v", err)
	}
	if _, err := Enable("infeasible-test"); err == nil {
		t.Fatal("Enable accepted a family with no feasible configuration")
	} else if !strings.Contains(err.Error(), "no feasible configuration") {
		t.Fatalf("Enable failed for the wrong reason: %v", err)
	}
	if _, ok := scenario.Lookup("infeasible-test/n6"); ok {
		t.Fatal("infeasible member leaked into the scenario registry")
	}
}

// TestFromBytes pins the fuzz decoder contract: every byte string decodes
// to a valid member of a registered family, short inputs zero-pad, and the
// decoded scenario matches the member built from its coordinate.
func TestFromBytes(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0},
		{1},
		{0, 1, 2, 3, 4, 5},
		{255, 254, 253},
		{7, 200, 13, 77, 3, 9, 250, 250, 250, 250},
	}
	for _, data := range cases {
		f, v, s, err := FromBytes(data)
		if err != nil {
			t.Fatalf("FromBytes(%v): %v", data, err)
		}
		if s.Name != f.MemberName(v) {
			t.Fatalf("FromBytes(%v) named %s, coordinate says %s", data, s.Name, f.MemberName(v))
		}
		rebuilt, err := f.Scenario(v)
		if err != nil {
			t.Fatalf("rebuilding %s: %v", s.Name, err)
		}
		if rebuilt.Fingerprint() != s.Fingerprint() {
			t.Fatalf("FromBytes(%v) and Scenario(v) disagree for %s", data, s.Name)
		}
	}
}

// TestFamilyValidation covers the declarative-definition error paths.
func TestFamilyValidation(t *testing.T) {
	ok := Family{
		Name:  "valid",
		Axes:  []Axis{{Name: "a", Values: []string{"x"}}},
		Build: func(Values) (scenario.Scenario, error) { return scenario.Scenario{}, nil },
	}
	cases := []struct {
		name   string
		mutate func(*Family)
		want   string
	}{
		{"empty name", func(f *Family) { f.Name = "" }, "empty name"},
		{"slash in name", func(f *Family) { f.Name = "a/b" }, "may not contain"},
		{"nil build", func(f *Family) { f.Build = nil }, "nil Build"},
		{"no axes", func(f *Family) { f.Axes = nil }, "no axes"},
		{"empty axis", func(f *Family) { f.Axes = []Axis{{Name: "a"}} }, "no values"},
		{"dup axis", func(f *Family) {
			f.Axes = append(f.Axes, Axis{Name: "a", Values: []string{"y"}})
		}, "duplicate axis"},
		{"dup value", func(f *Family) { f.Axes[0].Values = []string{"x", "x"} }, "duplicate value"},
		{"spaced value", func(f *Family) { f.Axes[0].Values = []string{"x y"} }, "malformed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := ok
			f.Axes = append([]Axis(nil), ok.Axes...)
			tc.mutate(&f)
			err := Register(f)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Register error %v does not mention %q", err, tc.want)
			}
		})
	}

	if _, err := ok.Scenario(Values{"a": "nope"}); err == nil {
		t.Fatal("Scenario accepted an off-axis coordinate")
	}
	if _, err := ok.Scenario(Values{}); err == nil {
		t.Fatal("Scenario accepted an incomplete coordinate")
	}
	if _, err := Enable("no-such-family"); err == nil {
		t.Fatal("Enable accepted an unknown family")
	}
}
