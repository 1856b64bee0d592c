// Command experiments regenerates the paper's evaluation and runs
// arbitrary declarative scenario sweeps: every Figure 7–9 panel, the
// Figure 2 example, the Section 6.4 summary statistics, the Theorem 1 and
// Lemma 2 worst-case ratios, the discrete-event NoC cross-validation —
// plus any registered workload source on any mesh through a spec file or
// flags, streaming per-point results to CSV/JSONL as they complete.
//
// Usage:
//
//	experiments -exp fig7a -trials 400
//	experiments -exp all -trials 100 -csv results/
//	experiments -exp summary -trials 20 -policies XY,XYI,PR,SA
//	experiments -spec examples/specs/smoke.json -csv out/
//	experiments -source tornado -mesh 16x16 -policies XY,PR,MAXMP
//	experiments -source uniform -topology torus:8x8 -policies TABLE
//	experiments -spec big.json -csv out/ -resume   # continue an interrupted sweep
//	experiments -spec examples/specs/optgap.json -optgap -csv out/
//	experiments -exp fig7a -cpuprofile cpu.prof -memprofile mem.prof
//
// The canned figure ids are aliases for canned scenario specs; everything
// runs through the same streaming sweep pipeline. -cpuprofile/-memprofile
// bracket the whole run with pprof profiles for hot-path work.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/solve"
	"repro/internal/tables"
)

func main() {
	c := bindFlags(flag.CommandLine)
	flag.Parse()
	os.Exit(profiledRun(*c))
}

// bindFlags defines the command's flags on fs, each bound straight onto
// the run's cfg (the -source family onto its scenario.Spec), and returns
// that cfg.
func bindFlags(fs *flag.FlagSet) *cfg {
	c := &cfg{}
	src := &c.source
	fs.StringVar(&c.exp, "exp", "all", "canned experiment id: fig2, fig7a..fig9c, summary, thm1, lemma2, open1mp, patterns, noc, all (ignored when -spec/-source is given)")
	fs.IntVar(&c.trials, "trials", 0, "trials per point (0 = spec value or default 400; the paper used 50000)")
	fs.Int64Var(&c.seed, "seed", 0, "seed offset added to each sweep's base seed")
	fs.StringVar(&c.csvDir, "csv", "", "directory for streamed CSV output (optional)")
	fs.StringVar(&c.jsonl, "jsonl", "", "file for streamed JSON-lines output (optional, sweeps only)")
	fs.BoolVar(&c.md, "md", false, "render tables as markdown instead of aligned text")
	fs.Func("policies", "comma-separated policy list, applied uniformly to every experiment that evaluates policies (registered: "+strings.Join(solve.Policies(), ", ")+")", func(s string) error {
		c.policies = parseList(s)
		return nil
	})
	fs.StringVar(&c.specFile, "spec", "", "JSON sweep spec file to run (see examples/specs/)")
	fs.StringVar(&src.Source, "source", "", "build a sweep from flags: scenario source name (registered: "+strings.Join(scenario.Sources(), ", ")+")")
	fs.StringVar(&src.Mesh, "mesh", "", "mesh geometry PxQ for -source sweeps (default 8x8)")
	fs.StringVar(&src.Topology, "topology", "", "non-mesh platform for -source sweeps, e.g. torus:8x8 or circulant:27:1,3,9 (mutually exclusive with -mesh; needs topology-capable -policies like TABLE)")
	fs.StringVar(&src.Axis, "axis", "", "sweep axis for -source sweeps: n, weight, length, rate (default: single point)")
	fs.Func("points", "comma-separated x-values for -axis", func(s string) error {
		src.Points = nil
		for _, f := range parseList(s) {
			x, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return err
			}
			src.Points = append(src.Points, x)
		}
		return nil
	})
	fs.IntVar(&src.Params.N, "n", 0, "base communication count for -source sweeps (default 30 for the random family)")
	fs.Float64Var(&src.Params.WMin, "wmin", 0, "minimum weight Mb/s for -source sweeps (default 100 when no -rate)")
	fs.Float64Var(&src.Params.WMax, "wmax", 0, "maximum weight Mb/s for -source sweeps (default 1500 when no -rate)")
	fs.Float64Var(&src.Params.Rate, "rate", 0, "fixed per-flow rate Mb/s for the pattern sources")
	fs.IntVar(&src.Params.Length, "length", 0, "exact Manhattan length for the random family")
	fs.IntVar(&c.workers, "workers", 0, "persistent sweep workers in the worker pool (0 = all cores); output is byte-identical at every worker count")
	fs.BoolVar(&c.resume, "resume", false, "resume an interrupted sweep from the streamed CSV in -csv (skips completed points)")
	fs.BoolVar(&c.optgap, "optgap", false, "run the sweep as an optimality-gap report: each policy's mean power ratio against the exact OPT on the same instances (keep meshes and -n small)")
	fs.IntVar(&c.optStates, "optstates", 0, "per-instance OPT node budget for -optgap (0 = the default; unsolved instances are reported, not fatal)")
	fs.BoolVar(&c.progress, "progress", false, "report per-point progress on stderr")
	fs.StringVar(&c.cpuProf, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&c.memProf, "memprofile", "", "write a pprof heap profile (post-run allocations) to this file")
	return c
}

// profiledRun executes the run bracketed by the optional pprof profiles,
// returning the process exit code — a separate frame so the profile
// flushing defers also cover the error path (os.Exit skips defers).
func profiledRun(c cfg) int {
	if c.cpuProf != "" {
		f, err := os.Create(c.cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments: -cpuprofile:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: -cpuprofile:", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if c.memProf != "" {
		defer func() {
			f, err := os.Create(c.memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: -memprofile:", err)
			}
		}()
	}
	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 1
	}
	return 0
}

type cfg struct {
	exp       string
	trials    int
	seed      int64
	csvDir    string
	jsonl     string
	md        bool
	policies  []string
	specFile  string
	source    scenario.Spec // the -source flag family; used when Source is set
	workers   int
	resume    bool
	progress  bool
	optgap    bool
	optStates int
	cpuProf   string
	memProf   string
}

// parseList splits a comma-separated flag into a clean list (nil when
// unset).
func parseList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// policyFree says why a canned experiment cannot honor the -policies
// list ("" when it can): the fixed comparisons from the paper never take
// one, and the NoC cross-validation replays exactly one routing.
func policyFree(id string, policies []string) string {
	switch {
	case policies == nil:
		return ""
	case id == "fig2" || id == "thm1" || id == "lemma2" || id == "open1mp":
		return "it compares fixed routings from the paper"
	case id == "noc" && len(policies) != 1:
		return fmt.Sprintf("the simulator replays exactly one routing, got %d policies", len(policies))
	}
	return ""
}

func run(c cfg) error {
	if c.csvDir != "" {
		if err := os.MkdirAll(c.csvDir, 0o755); err != nil {
			return err
		}
	}
	if c.resume && c.csvDir == "" {
		return fmt.Errorf("-resume needs -csv: the streamed CSV is the checkpoint")
	}

	// Declarative sweeps: a spec file, or a spec built from flags.
	if c.specFile != "" || c.source.Source != "" {
		sp, err := c.buildSpec()
		if err != nil {
			return err
		}
		return c.runSweep(sp)
	}

	ids := []string{c.exp}
	if c.exp == "all" {
		ids = append([]string{"fig2"}, experiments.FigureIDs()...)
		ids = append(ids, "summary", "thm1", "lemma2", "open1mp", "patterns", "noc")
	}
	for _, id := range ids {
		if why := policyFree(id, c.policies); why != "" {
			if c.exp != "all" {
				return fmt.Errorf("%s: -policies does not apply: %s", id, why)
			}
			// -policies applies uniformly to every policy-evaluating
			// experiment; the rest are skipped loudly rather than silently
			// ignoring the list.
			fmt.Fprintf(os.Stderr, "experiments: note: skipping %s (-policies does not apply: %s)\n", id, why)
			continue
		}
		if err := c.runOne(id); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
	}
	return nil
}

// buildSpec loads the -spec file or completes the spec the -source flag
// family filled in, then applies the uniform overrides (-trials, -seed,
// -policies).
func (c cfg) buildSpec() (scenario.Spec, error) {
	if c.specFile != "" && c.source.Source != "" {
		return scenario.Spec{}, fmt.Errorf("-spec and -source are mutually exclusive")
	}
	sp := c.source
	if c.specFile != "" {
		var err error
		if sp, err = scenario.LoadSpec(c.specFile); err != nil {
			return scenario.Spec{}, err
		}
	} else {
		// Default the weight range only when the user set no weight knob at
		// all (a lone -wmin/-wmax stays as given and fails loudly in Bind);
		// default -n only for the random family — every other source has
		// its own documented default (hotspot: all cores, pipeline: the
		// whole mesh, trace: a tuned light load).
		if p := &sp.Params; p.Rate == 0 && p.WMin == 0 && p.WMax == 0 {
			p.WMin, p.WMax = 100, 1500
		}
		if sp.Params.N == 0 && strings.EqualFold(sp.Source, "uniform") {
			sp.Params.N = 30
		}
		sp.ID = sp.Source
		if err := sp.Validate(); err != nil {
			return scenario.Spec{}, err
		}
	}
	return c.overrideSpec(sp), nil
}

// overrideSpec applies the uniform CLI overrides to a sweep spec.
func (c cfg) overrideSpec(sp scenario.Spec) scenario.Spec {
	if c.trials != 0 {
		sp.Trials = c.trials
	}
	sp.Seed += c.seed
	if c.policies != nil {
		sp.Policies = c.policies
	}
	return sp
}

// runSweep streams one spec through the sink stack selected by the
// flags: accumulated tables on stdout, plus CSV/JSONL/progress streams.
// The report's layout names its tables: a power sweep writes
// <id>_power.csv and <id>_failures.csv under -csv; under -optgap the same
// spec instead streams the optimality-gap report (every policy against
// the exact branch-and-bound on the same seeded instances) to
// <id>_optgap.csv. SIGINT/SIGTERM cancel the sweep instead of killing the
// process mid-write: workers drain and files close with whole records.
func (c cfg) runSweep(sp scenario.Spec) error {
	id := sp.ID
	if id == "" {
		id = "sweep"
	}
	layout := experiments.PowerLayout
	if c.optgap {
		layout = experiments.GapLayout
	}
	var paths []string
	if c.csvDir != "" {
		for _, rt := range layout {
			paths = append(paths, filepath.Join(c.csvDir, sanitize(id+"_"+rt.Name)+".csv"))
		}
	}
	if c.jsonl != "" {
		paths = append(paths, c.jsonl)
	}
	start, ends := 0, make([]int64, len(paths))
	if c.resume {
		var err error
		if start, ends, err = resumePoint(paths); err != nil {
			return err
		}
	}
	files := make([]*streamFile, len(paths))
	ws := make([]io.Writer, len(paths))
	for i, path := range paths {
		f, err := openStream(path, ends[i])
		if err != nil {
			return err
		}
		defer f.Close() // error paths; the success path checks Close below
		files[i], ws[i] = f, f
	}

	ts := experiments.NewTableSink()
	sinks := []experiments.Sink{ts}
	if c.csvDir != "" {
		sinks = append(sinks, experiments.NewCSVSink(ws[:len(layout)]...))
	}
	if c.jsonl != "" {
		sinks = append(sinks, experiments.NewJSONLSink(ws[len(ws)-1]))
	}
	if c.progress {
		sinks = append(sinks, experiments.NewProgressSink(os.Stderr))
	}
	// The counter sits last in the sink stack, so a point counts as
	// checkpointed only after the CSV/JSONL sinks ahead of it flushed it
	// to disk — the index the resume hint reports is always replayable.
	pc := &pointCounter{}
	sinks = append(sinks, pc)
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	opt := experiments.SweepOptions{Start: start, Workers: c.workers, Context: ctx}
	var err error
	if c.optgap {
		err = experiments.OptGap(sp, opt, c.optStates, sinks...)
	} else {
		err = experiments.Sweep(sp, opt, sinks...)
	}
	if errors.Is(err, context.Canceled) {
		// The interrupted run reports how to pick up where it stopped.
		fmt.Fprintf(os.Stderr, "experiments: interrupted: %d/%d points checkpointed\n", pc.done, pc.total)
		if c.csvDir != "" {
			cmd := strings.Join(os.Args, " ")
			if !c.resume {
				cmd += " -resume"
			}
			fmt.Fprintf(os.Stderr, "experiments: continue from point %d with:\n  %s\n", pc.done, cmd)
		} else {
			fmt.Fprintln(os.Stderr, "experiments: rerun with -csv to checkpoint interruptible sweeps (-resume continues them)")
		}
		return err
	}
	if err != nil {
		return err
	}
	for _, f := range files {
		if err := f.Close(); err != nil {
			return err
		}
	}
	for _, t := range ts.Tables() {
		if err := c.render(t); err != nil {
			return err
		}
	}
	return nil
}

// pointCounter is the sink that tracks the resume checkpoint: how many
// points (counting any resumed prefix) the sinks before it have already
// streamed. Sinks run sequentially on the sweep's merge goroutine, so
// plain fields suffice.
type pointCounter struct {
	done, total int
}

func (p *pointCounter) Begin(meta experiments.SweepMeta) error {
	p.done, p.total = meta.Start, len(meta.X)
	return nil
}

func (p *pointCounter) Point(pr experiments.PointResult) error {
	p.done = pr.Index + 1
	return nil
}

func (p *pointCounter) End() error { return nil }

// streamFile is a buffered, flushing stream target for incremental sinks.
type streamFile struct {
	f *os.File
	w *bufio.Writer
}

// openStream opens a sink target. A positive checkpointEnd continues a
// checkpoint: the file is truncated to that offset (the end of its last
// kept record) and writes append after it. Otherwise the file starts
// fresh.
func openStream(path string, checkpointEnd int64) (*streamFile, error) {
	flags := os.O_CREATE | os.O_WRONLY
	if checkpointEnd <= 0 {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, err
	}
	if checkpointEnd > 0 {
		if err := f.Truncate(checkpointEnd); err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.Seek(checkpointEnd, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &streamFile{f: f, w: bufio.NewWriter(f)}, nil
}

func (s *streamFile) Write(p []byte) (int, error) {
	n, err := s.w.Write(p)
	if err != nil {
		return n, err
	}
	// Flush per write: each sink emission is one complete record, so the
	// file on disk is always a valid checkpoint.
	return n, s.w.Flush()
}

func (s *streamFile) Close() error {
	if err := s.w.Flush(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

// resumePoint derives the resume index from the streamed checkpoint
// files. Every stream holds one header line (the CSV header, the JSONL
// meta record) and then one line per completed point; the sinks write a
// point to each stream in turn, so a kill can leave some streams a point
// ahead of the others, and a kill mid-flush can tear a final line, which
// does not count as a record. The sweep resumes at the smallest record
// count among the streams (a missing file counts 0), and ends holds the
// byte offset each file is truncated to so it keeps exactly that many
// records.
func resumePoint(paths []string) (start int, ends []int64, err error) {
	lines := make([][]int64, len(paths))
	start = -1
	for i, path := range paths {
		if lines[i], err = lineEnds(path); err != nil {
			return 0, nil, fmt.Errorf("-resume: %w", err)
		}
		if n := max(len(lines[i])-1, 0); start < 0 || n < start {
			start = n
		}
	}
	ends = make([]int64, len(paths))
	if start > 0 {
		for i := range paths {
			ends[i] = lines[i][start]
		}
	}
	return start, ends, nil
}

// lineEnds returns the byte offset just past each newline-terminated line
// of a file (none for a torn final line, nil for a missing file).
func lineEnds(path string) ([]int64, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var ends []int64
	for i, b := range data {
		if b == '\n' {
			ends = append(ends, int64(i+1))
		}
	}
	return ends, nil
}

func (c cfg) runOne(id string) error {
	switch id {
	case "fig2":
		pxy, p1mp, p2mp, err := experiments.Figure2Powers()
		if err != nil {
			return err
		}
		return c.emit(experiments.Figure2Table(pxy, p1mp, p2mp), id)
	case "summary":
		per := c.trials
		if per == 0 {
			per = 20
		}
		s, err := experiments.RunSummary(per, 1+c.seed, c.policies)
		if err != nil {
			return err
		}
		return c.emit(s.Table(), id)
	case "thm1":
		rows, err := experiments.RunTheorem1([]int{1, 2, 3, 4, 6, 8, 12, 16}, 3)
		if err != nil {
			return err
		}
		return c.emit(experiments.Theorem1Table(rows), id)
	case "lemma2":
		rows, err := experiments.RunLemma2([]int{1, 2, 4, 8, 16, 32}, 2.95)
		if err != nil {
			return err
		}
		return c.emit(experiments.Lemma2Table(rows, 2.95), id)
	case "open1mp":
		rows, err := experiments.RunOpenProblem([][2]int{
			{2, 2}, {2, 4}, {3, 2}, {3, 3}, {3, 4}, {4, 2}, {4, 3}, {4, 4}, {8, 4}, {8, 8},
		}, 3)
		if err != nil {
			return err
		}
		return c.emit(experiments.OpenProblemTable(rows, 3), id)
	case "patterns":
		rows, err := experiments.RunPatterns(900, c.policies)
		if err != nil {
			return err
		}
		return c.emit(experiments.PatternTable(rows), id)
	case "noc":
		var policy string // run admits at most one; none means PR
		if len(c.policies) == 1 {
			policy = c.policies[0]
		}
		v, err := experiments.RunNoCValidation(1+c.seed, 15, policy)
		if err != nil {
			return err
		}
		t := tables.New(fmt.Sprintf("E15: discrete-event simulation cross-validation (%s routing, n=%d)", v.Policy, v.Comms),
			"metric", "value")
		t.AddRow("analytic power (mW)", fmt.Sprintf("%.3f", v.AnalyticPowerMW))
		t.AddRow("simulated power (mW)", fmt.Sprintf("%.3f", v.SimPowerMW))
		t.AddRow("worst goodput error", fmt.Sprintf("%.2f%%", v.WorstRateError*100))
		t.AddRow("mean link utilization", fmt.Sprintf("%.3f", v.MeanUtilization))
		return c.emit(t, id)
	default:
		sp, err := experiments.SpecByID(id)
		if err != nil {
			return err
		}
		return c.runSweep(c.overrideSpec(sp))
	}
}

// render prints one table to stdout in the selected format, followed by a
// blank line.
func (c cfg) render(t *tables.Table) error {
	if c.md {
		if err := t.WriteMarkdown(os.Stdout); err != nil {
			return err
		}
	} else if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

// emit renders a non-sweep table and mirrors it to -csv like the sweeps'
// streamed files.
func (c cfg) emit(t *tables.Table, name string) error {
	if err := c.render(t); err != nil {
		return err
	}
	if c.csvDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(c.csvDir, sanitize(name)+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return t.WriteCSV(f)
}

func sanitize(s string) string {
	s = strings.ToLower(s)
	return strings.Map(func(r rune) rune {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '_' || r == '-' {
			return r
		}
		return '_'
	}, s)
}
