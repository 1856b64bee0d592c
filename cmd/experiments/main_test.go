package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
)

var specDir = filepath.Join("..", "..", "examples", "specs")

// runCaptured runs the command's run with stdout and stderr redirected
// into files and returns what each received.
func runCaptured(t *testing.T, c cfg) (stdout, stderr string, err error) {
	t.Helper()
	dir := t.TempDir()
	outF, ferr := os.Create(filepath.Join(dir, "stdout"))
	if ferr != nil {
		t.Fatal(ferr)
	}
	errF, ferr := os.Create(filepath.Join(dir, "stderr"))
	if ferr != nil {
		t.Fatal(ferr)
	}
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = outF, errF
	err = run(c)
	os.Stdout, os.Stderr = oldOut, oldErr
	outF.Close()
	errF.Close()
	return readFile(t, outF.Name()), readFile(t, errF.Name()), err
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// sameBytes fails the test when the file at got differs from the golden.
func sameBytes(t *testing.T, got, golden string) {
	t.Helper()
	if g, w := readFile(t, got), readFile(t, golden); g != w {
		t.Errorf("%s differs from %s\n--- got ---\n%s--- want ---\n%s", got, golden, g, w)
	}
}

// The smoke spec's streamed CSVs are the checked-in goldens, as the CI
// smoke step checks through the built binary.
func TestSmokeSpecCSVs(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := runCaptured(t, cfg{specFile: filepath.Join(specDir, "smoke.json"), csvDir: dir}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"smoke_power", "smoke_failures"} {
		sameBytes(t, filepath.Join(dir, name+".csv"), filepath.Join(specDir, name+".golden.csv"))
	}
}

// -optgap writes the gap CSV golden under -csv and renders the gap table
// golden (the table and a blank line) on stdout.
func TestOptGapOutputs(t *testing.T) {
	dir := t.TempDir()
	stdout, _, err := runCaptured(t, cfg{specFile: filepath.Join(specDir, "optgap.json"), csvDir: dir, optgap: true})
	if err != nil {
		t.Fatal(err)
	}
	sameBytes(t, filepath.Join(dir, "optgap_optgap.csv"), filepath.Join(specDir, "optgap_optgap.golden.csv"))
	if want := readFile(t, filepath.Join(specDir, "optgap_optgap.golden.txt")); stdout != want {
		t.Errorf("gap table differs from its golden\n--- got ---\n%s--- want ---\n%s", stdout, want)
	}
}

// -exp all with -policies skips the fixed-routing comparisons loudly (and
// noc too when the list is not exactly one policy); asking for one of
// them by id is refused.
func TestPoliciesSkipAndRefuse(t *testing.T) {
	_, stderr, err := runCaptured(t, cfg{exp: "all", policies: []string{"XY"}, trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, id := range []string{"fig2", "thm1", "lemma2", "open1mp"} {
		want.WriteString("experiments: note: skipping " + id +
			" (-policies does not apply: it compares fixed routings from the paper)\n")
	}
	if stderr != want.String() {
		t.Errorf("skip notes:\n%s\nwant:\n%s", stderr, want.String())
	}

	_, stderr, err = runCaptured(t, cfg{exp: "all", policies: []string{"XY", "PR"}, trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	if note := "skipping noc (-policies does not apply: the simulator replays exactly one routing, got 2 policies)"; !strings.Contains(stderr, note) {
		t.Errorf("stderr lacks %q:\n%s", note, stderr)
	}

	for _, tc := range []struct {
		c    cfg
		want string
	}{
		{cfg{exp: "fig2", policies: []string{"XY"}}, "fig2: -policies does not apply: it compares fixed routings from the paper"},
		{cfg{exp: "noc", policies: []string{"XY", "PR"}}, "noc: -policies does not apply: the simulator replays exactly one routing, got 2 policies"},
	} {
		if _, _, err := runCaptured(t, tc.c); err == nil || err.Error() != tc.want {
			t.Errorf("-exp %s -policies %v: err %v, want %q", tc.c.exp, tc.c.policies, err, tc.want)
		}
	}
}

// The command keeps its 25 flags with their defaults.
func TestFlagDefaults(t *testing.T) {
	want := map[string]string{
		"exp": "all", "trials": "0", "seed": "0", "csv": "", "jsonl": "", "md": "false",
		"policies": "", "spec": "", "source": "", "mesh": "", "topology": "", "axis": "",
		"points": "", "n": "0", "wmin": "0", "wmax": "0", "rate": "0", "length": "0",
		"workers": "0", "resume": "false", "optgap": "false", "optstates": "0",
		"progress": "false", "cpuprofile": "", "memprofile": "",
	}
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	bindFlags(fs)
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flags and defaults:\n%v\nwant:\n%v", got, want)
	}
}

// The -source flag family fills the spec a flag-built sweep runs: the
// smoke spec spelled as flags streams the smoke goldens.
func TestSourceFlagsBuildTheSpec(t *testing.T) {
	dir := t.TempDir()
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	c := bindFlags(fs)
	if err := fs.Parse([]string{"-source", "uniform", "-mesh", "8x8", "-axis", "n", "-points", "5, 20,40",
		"-wmin", "100", "-wmax", "1200", "-trials", "5", "-seed", "7", "-policies", "XY,PR,BEST", "-csv", dir}); err != nil {
		t.Fatal(err)
	}
	wantSrc := scenario.Spec{Source: "uniform", Mesh: "8x8", Axis: "n", Points: []float64{5, 20, 40},
		Params: scenario.Params{WMin: 100, WMax: 1200}}
	if !reflect.DeepEqual(c.source, wantSrc) {
		t.Fatalf("source spec %+v, want %+v", c.source, wantSrc)
	}
	if _, _, err := runCaptured(t, *c); err != nil {
		t.Fatal(err)
	}
	sameBytes(t, filepath.Join(dir, "uniform_power.csv"), filepath.Join(specDir, "smoke_power.golden.csv"))
	sameBytes(t, filepath.Join(dir, "uniform_failures.csv"), filepath.Join(specDir, "smoke_failures.golden.csv"))
}

// cutLines writes the first n lines of src to dst, plus the first half of
// line n+1 when torn is set (a kill mid-flush).
func cutLines(t *testing.T, src, dst string, n int, torn bool) {
	t.Helper()
	lines := strings.SplitAfter(readFile(t, src), "\n")
	out := strings.Join(lines[:n], "")
	if torn {
		out += lines[n][:len(lines[n])/2]
	}
	if err := os.WriteFile(dst, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
}

// -resume restarts at the smallest record count among the CSVs and the
// JSONL and truncates every stream to it, torn last lines included: the
// state a kill leaves between the CSV and the JSONL writes resumes into
// the uninterrupted run's bytes in all three files.
func TestResumeTruncatesEveryStream(t *testing.T) {
	full, cut := t.TempDir(), t.TempDir()
	spec := filepath.Join(specDir, "smoke.json")
	if _, _, err := runCaptured(t, cfg{specFile: spec, csvDir: full, jsonl: filepath.Join(full, "smoke.jsonl")}); err != nil {
		t.Fatal(err)
	}
	cutLines(t, filepath.Join(full, "smoke_power.csv"), filepath.Join(cut, "smoke_power.csv"), 3, true)
	cutLines(t, filepath.Join(full, "smoke_failures.csv"), filepath.Join(cut, "smoke_failures.csv"), 3, false)
	cutLines(t, filepath.Join(full, "smoke.jsonl"), filepath.Join(cut, "smoke.jsonl"), 2, true)
	if _, _, err := runCaptured(t, cfg{specFile: spec, csvDir: cut, jsonl: filepath.Join(cut, "smoke.jsonl"), resume: true}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"smoke_power.csv", "smoke_failures.csv", "smoke.jsonl"} {
		sameBytes(t, filepath.Join(cut, name), filepath.Join(full, name))
	}
}

// The gap report streams its points to -jsonl too, and resumes from its
// checkpoint files like a power sweep.
func TestOptGapResume(t *testing.T) {
	full, cut := t.TempDir(), t.TempDir()
	spec := filepath.Join(specDir, "optgap.json")
	if _, _, err := runCaptured(t, cfg{specFile: spec, csvDir: full, jsonl: filepath.Join(full, "optgap.jsonl"), optgap: true}); err != nil {
		t.Fatal(err)
	}
	sameBytes(t, filepath.Join(full, "optgap_optgap.csv"), filepath.Join(specDir, "optgap_optgap.golden.csv"))
	if jl := readFile(t, filepath.Join(full, "optgap.jsonl")); strings.Count(jl, `"mean_gap":`) != 2 || strings.Count(jl, `"opt_solved":10`) != 2 {
		t.Errorf("gap JSONL lacks its two gap points:\n%s", jl)
	}
	cutLines(t, filepath.Join(full, "optgap_optgap.csv"), filepath.Join(cut, "optgap_optgap.csv"), 2, false)
	cutLines(t, filepath.Join(full, "optgap.jsonl"), filepath.Join(cut, "optgap.jsonl"), 2, true)
	if _, _, err := runCaptured(t, cfg{specFile: spec, csvDir: cut, jsonl: filepath.Join(cut, "optgap.jsonl"), optgap: true, resume: true}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"optgap_optgap.csv", "optgap.jsonl"} {
		sameBytes(t, filepath.Join(cut, name), filepath.Join(full, name))
	}
}
