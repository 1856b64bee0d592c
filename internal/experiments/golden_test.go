package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/scenario"
)

// golden compares got against the checked-in pre-refactor output. The
// files under testdata were generated by the hard-coded panel runner the
// Spec/Sweep pipeline replaced, so these tests pin the refactor to
// byte-identical output.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output diverged from the pre-refactor golden\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

// Every canned figure id, streamed through the Spec/Sweep path at the
// golden trial count, must reproduce the pre-refactor tables and CSVs
// byte for byte — at the serial worker count, at NumCPU, and on a
// deliberately parallel pool, since the sweep engine guarantees byte-identical streams at every worker count.
func TestGoldenFigureSweeps(t *testing.T) {
	counts := []int{1, runtime.NumCPU(), 4}
	for _, id := range FigureIDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			sp, err := SpecByID(id)
			if err != nil {
				t.Fatal(err)
			}
			sp.Trials = 3
			for _, workers := range counts {
				ts := NewTableSink()
				var pow, fail bytes.Buffer
				if err := Sweep(sp, SweepOptions{Workers: workers}, ts, NewCSVSink(&pow, &fail)); err != nil {
					t.Fatal(err)
				}
				tabs := ts.Tables()
				golden(t, id+"_tables.txt", []byte(tabs[0].String()+"\n"+tabs[1].String()))
				golden(t, id+"_power.csv", pow.Bytes())
				golden(t, id+"_failures.csv", fail.Bytes())
			}
		})
	}
}

// The streamed CSV must also match the CSV of the accumulated tables —
// the two output paths share one formatter and may never diverge.
func TestStreamedCSVMatchesTableCSV(t *testing.T) {
	sp, err := SpecByID("fig7c")
	if err != nil {
		t.Fatal(err)
	}
	sp.Trials = 2
	ts := NewTableSink()
	var pow, fail bytes.Buffer
	if err := Sweep(sp, SweepOptions{}, ts, NewCSVSink(&pow, &fail)); err != nil {
		t.Fatal(err)
	}
	tabs := ts.Tables()
	np, fr := tabs[0], tabs[1]
	var npCSV, frCSV bytes.Buffer
	if err := np.WriteCSV(&npCSV); err != nil {
		t.Fatal(err)
	}
	if err := fr.WriteCSV(&frCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pow.Bytes(), npCSV.Bytes()) {
		t.Error("streamed power CSV differs from the accumulated table's CSV")
	}
	if !bytes.Equal(fail.Bytes(), frCSV.Bytes()) {
		t.Error("streamed failure CSV differs from the accumulated table's CSV")
	}
}

// Figure 2 and the §6.4 summary table (solve times masked — wall-clock is
// the one nondeterministic column) are pinned the same way.
func TestGoldenFig2(t *testing.T) {
	pxy, p1mp, p2mp, err := Figure2Powers()
	if err != nil {
		t.Fatal(err)
	}
	tb := Figure2Table(pxy, p1mp, p2mp)
	golden(t, "fig2_tables.txt", []byte(tb.String()))
	var csv bytes.Buffer
	if err := tb.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	golden(t, "fig2.csv", csv.Bytes())
}

func TestGoldenSummary(t *testing.T) {
	s, err := RunSummary(2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	tb := s.Table()
	for _, row := range tb.Rows {
		row[len(row)-1] = "" // mask mean solve time
	}
	golden(t, "summary_tables.txt", []byte(tb.String()))
	var csv bytes.Buffer
	if err := tb.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	golden(t, "summary.csv", csv.Bytes())
}

// The checked-in example spec must stream CSV matching its checked-in
// golden — the same invariant the CI smoke job enforces through
// cmd/experiments.
func TestGoldenSmokeSpec(t *testing.T) {
	sp, err := scenario.LoadSpec(filepath.Join("..", "..", "examples", "specs", "smoke.json"))
	if err != nil {
		t.Fatal(err)
	}
	var pow, fail bytes.Buffer
	if err := Sweep(sp, SweepOptions{}, NewCSVSink(&pow, &fail)); err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]byte{
		"smoke_power.golden.csv":    pow.Bytes(),
		"smoke_failures.golden.csv": fail.Bytes(),
	} {
		want, err := os.ReadFile(filepath.Join("..", "..", "examples", "specs", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: streamed CSV diverged from the checked-in golden\n--- got ---\n%s--- want ---\n%s",
				name, got, want)
		}
	}
}

// The checked-in optimality-gap spec must stream the gap CSV and render
// the gap table matching their checked-in goldens at the serial worker
// count and at NumCPU — the same invariant the CI optgap smoke step
// enforces through cmd/experiments, whose stdout is the table followed
// by a blank line.
func TestGoldenOptGapSpec(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "specs")
	sp, err := scenario.LoadSpec(filepath.Join(dir, "optgap.json"))
	if err != nil {
		t.Fatal(err)
	}
	wantCSV, err := os.ReadFile(filepath.Join(dir, "optgap_optgap.golden.csv"))
	if err != nil {
		t.Fatal(err)
	}
	wantTable, err := os.ReadFile(filepath.Join(dir, "optgap_optgap.golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, runtime.NumCPU()} {
		var got bytes.Buffer
		ts := NewTableSink()
		if err := OptGap(sp, SweepOptions{Workers: workers}, 0, NewCSVSink(&got), ts); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), wantCSV) {
			t.Errorf("workers=%d: gap CSV diverged from the checked-in golden\n--- got ---\n%s--- want ---\n%s",
				workers, got.Bytes(), wantCSV)
		}
		if table := ts.Tables()[0].String() + "\n"; table != string(wantTable) {
			t.Errorf("workers=%d: gap table diverged from the checked-in golden\n--- got ---\n%s--- want ---\n%s",
				workers, table, wantTable)
		}
	}
}

// Every checked-in example spec parses and passes the sweep's own
// resolution step.
func TestExampleSpecsValid(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "specs")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	specs := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".json" {
			continue
		}
		specs++
		sp, err := scenario.LoadSpec(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Errorf("%s: %v", e.Name(), err)
			continue
		}
		if err := Check(sp); err != nil {
			t.Errorf("%s: %v", e.Name(), err)
		}
	}
	if specs == 0 {
		t.Error("no example specs found")
	}
}
