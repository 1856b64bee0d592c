package experiments

import (
	"strings"
	"testing"
)

func TestRunPatternsBasics(t *testing.T) {
	rows, err := RunPatterns(600, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5 patterns", len(rows))
	}
	for _, r := range rows {
		if r.Flows == 0 {
			t.Errorf("%v: no flows", r.Pattern)
		}
		for _, name := range HeuristicNames {
			if _, ok := r.Cells[name]; !ok {
				t.Errorf("%v: missing cell %s", r.Pattern, name)
			}
		}
		best := r.Cells["BEST"]
		for name, c := range r.Cells {
			if name == "BEST" || !c.Feasible {
				continue
			}
			if !best.Feasible || best.PowerMW > c.PowerMW+1e-9 {
				t.Errorf("%v: BEST (%v %.1f) worse than %s (%.1f)",
					r.Pattern, best.Feasible, best.PowerMW, name, c.PowerMW)
			}
		}
	}
}

// At a light per-flow rate, the neighbor pattern must be feasible for
// everyone; at a punishing rate the structured patterns separate XY from
// the Manhattan heuristics.
func TestPatternsSeparateHeuristics(t *testing.T) {
	light, err := RunPatterns(300, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range light {
		if r.Pattern.String() == "neighbor" {
			for name, c := range r.Cells {
				if !c.Feasible {
					t.Errorf("neighbor at 300 Mb/s: %s failed", name)
				}
			}
		}
	}
	heavy, err := RunPatterns(1600, nil)
	if err != nil {
		t.Fatal(err)
	}
	xyFails, bestFails := 0, 0
	for _, r := range heavy {
		if !r.Cells["XY"].Feasible {
			xyFails++
		}
		if !r.Cells["BEST"].Feasible {
			bestFails++
		}
	}
	if xyFails <= bestFails {
		t.Errorf("heavy patterns: XY fails %d, BEST fails %d — expected XY to fail more", xyFails, bestFails)
	}
}

func TestPatternTableRenders(t *testing.T) {
	rows, err := RunPatterns(900, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := PatternTable(rows).String()
	for _, want := range []string{"bit-complement", "tornado", "neighbor"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}
