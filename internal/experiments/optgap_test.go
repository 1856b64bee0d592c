package experiments

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// gapSpec is a small sweep OPT closes comfortably: 4x4 mesh, few comms.
func gapSpec() scenario.Spec {
	return scenario.Spec{
		ID: "gaptest", Title: "gap test", XLabel: "n",
		Mesh:   "4x4",
		Params: scenario.Params{WMin: 100, WMax: 900},
		Axis:   scenario.AxisN, Points: []float64{3, 5},
		Policies: []string{"XY", "PR", "BEST"},
		Trials:   8, Seed: 7,
	}
}

// runGaps streams a spec's gap report on all cores into a recorder.
func runGaps(t *testing.T, sp scenario.Spec, maxStates int) *recordSink {
	t.Helper()
	rs := &recordSink{}
	if err := OptGap(sp, SweepOptions{}, maxStates, rs); err != nil {
		t.Fatal(err)
	}
	return rs
}

// Every matched single-path heuristic gap is >= 1: OPT is optimal over
// exactly the routings the heuristics choose from. This is the invariant
// the CI smoke step asserts on the CSV output.
func TestGapsAtLeastOne(t *testing.T) {
	res := runGaps(t, gapSpec(), 0)
	if len(res.points) != 2 || !res.ended {
		t.Fatalf("expected 2 points and End, got %d (ended=%v)", len(res.points), res.ended)
	}
	anyMatched := false
	for _, gp := range res.points {
		if gp.OptSolved == 0 {
			t.Fatalf("point x=%g: OPT solved no trials", gp.X)
		}
		for si, name := range res.meta.Policies {
			if gp.Matched[si] == 0 {
				continue
			}
			anyMatched = true
			if gp.MeanGap[si] < 1.0-1e-9 {
				t.Fatalf("point x=%g policy %s: mean gap %.12f < 1", gp.X, name, gp.MeanGap[si])
			}
			if gp.Matched[si] > gp.OptSolved {
				t.Fatalf("point x=%g policy %s: matched %d > opt solved %d", gp.X, name, gp.Matched[si], gp.OptSolved)
			}
		}
	}
	if !anyMatched {
		t.Fatal("no trial matched any heuristic against OPT")
	}
}

// BEST's gap is the tightest: it minimizes over the constructive
// heuristics, so on every matched instance its ratio is <= each of
// theirs.
func TestGapBestIsTightest(t *testing.T) {
	sp := gapSpec()
	sp.Policies = []string{"XY", "SG", "IG", "TB", "XYI", "PR", "BEST"}
	res := runGaps(t, sp, 0)
	bi := -1
	for i, n := range res.meta.Policies {
		if n == "BEST" {
			bi = i
		}
	}
	if bi < 0 {
		t.Fatal("BEST column missing")
	}
	for _, gp := range res.points {
		if gp.Matched[bi] == 0 {
			continue
		}
		for si, name := range res.meta.Policies {
			if si == bi || gp.Matched[si] != gp.Matched[bi] {
				continue
			}
			if gp.MeanGap[bi] > gp.MeanGap[si]+1e-9 {
				t.Fatalf("point x=%g: BEST gap %.6f exceeds %s gap %.6f", gp.X, gp.MeanGap[bi], name, gp.MeanGap[si])
			}
		}
	}
}

// An explicit OPT in the spec's policy list is dropped from the columns,
// not doubled into them.
func TestGapDropsExplicitOPT(t *testing.T) {
	sp := gapSpec()
	sp.Policies = []string{"XY", "OPT", "PR"}
	res := runGaps(t, sp, 0)
	if got := res.meta.Policies; len(got) != 2 || got[0] != "XY" || got[1] != "PR" {
		t.Fatalf("expected columns [XY PR], got %v", got)
	}
}

// Gap output is byte-identical at every worker count — the sweep engine's
// ordered merge plus OPT's own determinism contract.
func TestGapDeterministicAcrossWorkers(t *testing.T) {
	var outs []string
	for _, workers := range []int{1, 3} {
		var csv strings.Builder
		ts := NewTableSink()
		if err := OptGap(gapSpec(), SweepOptions{Workers: workers}, 0, NewCSVSink(&csv), ts); err != nil {
			t.Fatal(err)
		}
		outs = append(outs, csv.String()+"\n----\n"+ts.Tables()[0].String())
	}
	if outs[0] != outs[1] {
		t.Fatalf("gap output differs between 1 and 3 workers:\n%s\nvs\n%s", outs[0], outs[1])
	}
}

// A starved budget surfaces as unsolved trials, not an error or a wrong
// ratio: with a 1-state budget OPT closes nothing.
func TestGapBudgetTruncation(t *testing.T) {
	res := runGaps(t, gapSpec(), 1)
	for _, gp := range res.points {
		if gp.OptSolved != 0 {
			t.Fatalf("point x=%g: OPT solved %d trials on a 1-state budget", gp.X, gp.OptSolved)
		}
		for si, m := range gp.Matched {
			if m != 0 || gp.MeanGap[si] != 0 {
				t.Fatalf("point x=%g: matched=%d gap=%g with OPT unsolved", gp.X, m, gp.MeanGap[si])
			}
		}
	}
}

// A budget of 0 is the default budget, not an empty one: on the
// checked-in gap spec OPT closes every trial, and the report equals the
// one run with DefaultGapMaxStates spelled out.
func TestGapZeroBudgetIsDefault(t *testing.T) {
	sp, err := scenario.LoadSpec(filepath.Join("..", "..", "examples", "specs", "optgap.json"))
	if err != nil {
		t.Fatal(err)
	}
	res := runGaps(t, sp, 0)
	for _, gp := range res.points {
		if gp.OptSolved != gp.Trials || gp.Trials != sp.Trials {
			t.Fatalf("point x=%g: OPT solved %d of %d trials (spec: %d)", gp.X, gp.OptSolved, gp.Trials, sp.Trials)
		}
	}
	if def := runGaps(t, sp, DefaultGapMaxStates); !reflect.DeepEqual(res.points, def.points) {
		t.Fatalf("budget 0 and DefaultGapMaxStates differ:\n%+v\n%+v", res.points, def.points)
	}
}
