package main

import (
	"strings"
	"testing"
)

// TestParseRun pins the -run selection: "all" is every experiment but
// calibrate, a comma list selects its (trimmed) names, and an unknown name
// is an error listing the valid ones instead of a silent empty run.
func TestParseRun(t *testing.T) {
	all, err := parseRun("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(experimentNames)-1 || all["calibrate"] {
		t.Errorf("-run all selected %v", all)
	}

	some, err := parseRun("fig4, ablation")
	if err != nil {
		t.Fatal(err)
	}
	if len(some) != 2 || !some["fig4"] || !some["ablation"] {
		t.Errorf("-run fig4,ablation selected %v", some)
	}

	for _, run := range []string{"fig9", "fig4,nope", "", "fig4,"} {
		if _, err := parseRun(run); err == nil {
			t.Errorf("-run %q accepted", run)
		} else {
			for _, name := range experimentNames {
				if !strings.Contains(err.Error(), name) {
					t.Errorf("-run %q: error %q does not list %q", run, err, name)
				}
			}
		}
	}
}
