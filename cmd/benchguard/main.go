// Command benchguard compares a freshly measured bench record with the
// committed baseline and fails when a guarded row regressed:
//
//	BENCH_JSON=$PWD/bench.json go test -run '^TestEmitBenchJSON$' -count=1 .
//	benchguard -baseline BENCH_baseline.jsonl -current bench.json
//
// Both files hold records in perfbench's result shape, one per line:
// {"environment": {...}, "metrics": {name: {"value", "unit"}}}, each one
// measuring session. Every guard of the table applies one rule. A row is
// divided by its reference row from the same record, never from another,
// and must stay within Factor of the baseline and at or above Floor. A
// guarded row missing from either file, or a non-positive value, exits 2;
// only a pattern row the baseline never measured (a larger worker count)
// is held to its floor alone.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path"
	"sort"
	"strings"
)

// record is one measuring session; benchguard reads only its values.
type record struct {
	Metrics map[string]struct{ Value float64 } `json:"metrics"`
}

// guard is one rule. Row may be a path.Match pattern, guarding every row
// of the current file it matches. Factor bounds current/baseline: at
// most Factor when lower is better, at least Factor when higher is. Floor
// is the least normalized current value. Zero disables either bound.
type guard struct {
	Row, Ref, Better string
	Factor, Floor    float64
}

var guards = []guard{
	{Row: "IG.ns_per_op", Ref: "XY.ns_per_op", Better: "lower", Factor: 2},
	{Row: "PR.ns_per_op", Ref: "XY.ns_per_op", Better: "lower", Factor: 2},
	{Row: "XYI.ns_per_op", Ref: "XY.ns_per_op", Better: "lower", Factor: 2},
	{Row: "SA.ns_per_op", Ref: "XY.ns_per_op", Better: "lower", Factor: 2},
	{Row: "2MP.ns_per_op", Ref: "XY.ns_per_op", Better: "lower", Factor: 2},
	{Row: "4MP.ns_per_op", Ref: "XY.ns_per_op", Better: "lower", Factor: 2},
	{Row: "OPT.ns_per_op", Ref: "XY.ns_per_op", Better: "lower", Factor: 2},
	{Row: "NoCSimSF.ns_per_op", Ref: "XY.ns_per_op", Better: "lower", Factor: 2},
	{Row: "NoCSimCT.ns_per_op", Ref: "XY.ns_per_op", Better: "lower", Factor: 2},
	{Row: "NoCSimEnergy.ns_per_op", Ref: "XY.ns_per_op", Better: "lower", Factor: 2},
	{Row: "serve.solve.p50_ns", Ref: "XY.ns_per_op", Better: "lower", Factor: 3},
	{Row: "serve.sweep_cold.p50_ns", Ref: "XY.ns_per_op", Better: "lower", Factor: 3},
	{Row: "serve.sweep_hit.p50_ns", Ref: "XY.ns_per_op", Better: "lower", Factor: 3},
	// The cold-sweep p50 over the cache-hit p50: the hit speedup.
	{Row: "serve.sweep_cold.p50_ns", Ref: "serve.sweep_hit.p50_ns", Better: "higher", Floor: 2},
	{Row: "sweep_scaling.*.efficiency", Better: "higher", Factor: 0.6, Floor: 0.5},
}

func main() {
	baseline := flag.String("baseline", "BENCH_baseline.jsonl", "committed baseline records")
	current := flag.String("current", "", "freshly measured record")
	flag.Parse()
	base, err := load(*baseline)
	cur, err2 := load(*current)
	failed := false
	if err = errors.Join(err, err2); err == nil {
		failed, err = check(os.Stdout, guards, base, cur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchguard: regression against", *baseline)
		os.Exit(1)
	}
}

// check applies every guard to the current records against the baseline
// records, printing one line per row to w, and reports whether any row
// failed. An error is a missing or non-positive row.
func check(w io.Writer, gs []guard, base, cur []record) (failed bool, err error) {
	for _, g := range gs {
		rows, pattern := []string{g.Row}, strings.ContainsAny(g.Row, "*?[")
		if pattern {
			rows = rows[:0]
			for _, r := range cur {
				for name := range r.Metrics {
					if ok, _ := path.Match(g.Row, name); ok {
						rows = append(rows, name)
					}
				}
			}
			if len(rows) == 0 {
				return false, fmt.Errorf("no row of the current file matches %q", g.Row)
			}
			sort.Strings(rows)
		}
		for _, row := range rows {
			c, _, err := value(cur, row, g.Ref, true)
			if err != nil {
				return false, fmt.Errorf("current: %w", err)
			}
			b, hasBase, err := value(base, row, g.Ref, !pattern)
			if err != nil {
				return false, fmt.Errorf("baseline: %w", err)
			}
			worse := c/b > g.Factor
			if g.Better == "higher" {
				worse = c/b < g.Factor
			}
			status, bs, ratio := "ok", "(no baseline)", ""
			if hasBase && g.Factor > 0 && worse || c < g.Floor {
				status, failed = "REGRESSED", true
			}
			if hasBase {
				bs, ratio = fmt.Sprintf("%.2f", b), fmt.Sprintf("ratio %5.2f", c/b)
			}
			if g.Ref != "" {
				row += " / " + g.Ref
			}
			fmt.Fprintf(w, "%-50s baseline %13s  current %12.2f  %-11s  %s\n", row, bs, c, ratio, status)
		}
	}
	return failed, nil
}

// value returns row's value from the one record that holds it, divided by
// ref's value in that same record when ref is set. A missing row is an
// error when required, otherwise reported as absent.
func value(recs []record, row, ref string, required bool) (float64, bool, error) {
	var in *record
	for i := range recs {
		if _, ok := recs[i].Metrics[row]; ok {
			if in != nil {
				return 0, false, fmt.Errorf("row %q is in more than one record", row)
			}
			in = &recs[i]
		}
	}
	if in == nil {
		if required {
			return 0, false, fmt.Errorf("guarded row %q is missing", row)
		}
		return 0, false, nil
	}
	v, r := in.Metrics[row].Value, 1.0
	if ref != "" {
		r = in.Metrics[ref].Value // a reference missing from the record reads 0
	}
	if v <= 0 || r <= 0 {
		return 0, false, fmt.Errorf("row %q is %g, its reference %q in the same record %g", row, v, ref, r)
	}
	return v / r, true, nil
}

// load reads every record of a file: JSON lines, or one indented record.
func load(file string) (recs []record, err error) {
	data, err := os.ReadFile(file)
	for dec := json.NewDecoder(bytes.NewReader(data)); err == nil && dec.More(); {
		var r record
		if err = dec.Decode(&r); err == nil {
			recs = append(recs, r)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("reading %q: %w", file, err)
	}
	return recs, nil
}
