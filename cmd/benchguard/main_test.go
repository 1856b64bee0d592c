package main

import (
	"io"
	"testing"
)

// rec builds a record from name/value pairs.
func rec(kv ...any) record {
	r := record{Metrics: map[string]struct{ Value float64 }{}}
	for i := 0; i < len(kv); i += 2 {
		r.Metrics[kv[i].(string)] = struct{ Value float64 }{kv[i+1].(float64)}
	}
	return r
}

// TestCheckRule drives the one guard rule over in-memory records.
func TestCheckRule(t *testing.T) {
	gs := []guard{
		{Row: "IG.ns_per_op", Ref: "XY.ns_per_op", Better: "lower", Factor: 2},
		{Row: "cold", Ref: "hit", Better: "higher", Floor: 2},
		{Row: "eff.*", Better: "higher", Factor: 0.6, Floor: 0.5},
	}
	base := []record{
		rec("XY.ns_per_op", 10.0, "IG.ns_per_op", 300.0),
		rec("cold", 12.0, "hit", 1.0, "eff.w1", 1.0, "eff.w2", 0.9),
	}
	for _, tc := range []struct {
		name    string
		cur     []record
		failed  bool
		wantErr bool
	}{
		// IG/XY reads 30 in the baseline.
		{"pass", []record{rec("XY.ns_per_op", 5.0, "IG.ns_per_op", 200.0, "cold", 6.0, "hit", 2.0, "eff.w1", 1.0, "eff.w2", 0.8)}, false, false},
		{"past the factor", []record{rec("XY.ns_per_op", 5.0, "IG.ns_per_op", 301.0, "cold", 6.0, "hit", 2.0, "eff.w1", 1.0, "eff.w2", 0.8)}, true, false},
		{"under a floor", []record{rec("XY.ns_per_op", 5.0, "IG.ns_per_op", 200.0, "cold", 3.0, "hit", 2.0, "eff.w1", 1.0, "eff.w2", 0.8)}, true, false},
		// 0.53 is above the floor but under 0.6 of the baseline's 0.9.
		{"under the baseline factor", []record{rec("XY.ns_per_op", 5.0, "IG.ns_per_op", 200.0, "cold", 6.0, "hit", 2.0, "eff.w1", 1.0, "eff.w2", 0.53)}, true, false},
		// A worker count the baseline never measured meets its floor alone.
		{"pattern row without baseline", []record{rec("XY.ns_per_op", 5.0, "IG.ns_per_op", 200.0, "cold", 6.0, "hit", 2.0, "eff.w1", 1.0, "eff.w2", 0.8, "eff.w8", 0.51)}, false, false},
		{"pattern row without baseline under its floor", []record{rec("XY.ns_per_op", 5.0, "IG.ns_per_op", 200.0, "cold", 6.0, "hit", 2.0, "eff.w1", 1.0, "eff.w2", 0.8, "eff.w8", 0.49)}, true, false},
		{"missing guarded row", []record{rec("XY.ns_per_op", 5.0, "cold", 6.0, "hit", 2.0, "eff.w1", 1.0)}, false, true},
		{"no pattern match", []record{rec("XY.ns_per_op", 5.0, "IG.ns_per_op", 200.0, "cold", 6.0, "hit", 2.0)}, false, true},
		{"non-positive value", []record{rec("XY.ns_per_op", 5.0, "IG.ns_per_op", 0.0, "cold", 6.0, "hit", 2.0, "eff.w1", 1.0)}, false, true},
		{"non-positive reference", []record{rec("XY.ns_per_op", -1.0, "IG.ns_per_op", 200.0, "cold", 6.0, "hit", 2.0, "eff.w1", 1.0)}, false, true},
		// The XY reference of another session must not normalize IG.
		{"reference in another record", []record{
			rec("IG.ns_per_op", 200.0, "cold", 6.0, "hit", 2.0, "eff.w1", 1.0),
			rec("XY.ns_per_op", 5.0),
		}, false, true},
		{"row in two records", []record{
			rec("XY.ns_per_op", 5.0, "IG.ns_per_op", 200.0, "cold", 6.0, "hit", 2.0, "eff.w1", 1.0),
			rec("XY.ns_per_op", 5.0, "IG.ns_per_op", 200.0),
		}, false, true},
	} {
		failed, err := check(io.Discard, gs, base, tc.cur)
		if (err != nil) != tc.wantErr || failed != tc.failed {
			t.Errorf("%s: failed=%v err=%v, want failed=%v error=%v", tc.name, failed, err, tc.failed, tc.wantErr)
		}
	}
	// The baseline is held to the same rule: a guarded row it lacks is an
	// error, not a pass.
	cur := []record{rec("XY.ns_per_op", 5.0, "IG.ns_per_op", 200.0, "cold", 6.0, "hit", 2.0, "eff.w1", 1.0)}
	if _, err := check(io.Discard, gs, base[1:], cur); err == nil {
		t.Error("a guarded row missing from the baseline passed")
	}
}

// TestCommittedBaselineCarriesEveryGuard checks the committed baseline
// against itself: every guarded row is present, positive and passing.
func TestCommittedBaselineCarriesEveryGuard(t *testing.T) {
	base, err := load("../../BENCH_baseline.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if failed, err := check(io.Discard, guards, base, base); err != nil || failed {
		t.Fatalf("failed=%v err=%v", failed, err)
	}
}
