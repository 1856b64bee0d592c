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
	var (
		exp     = flag.String("exp", "all", "canned experiment id: fig2, fig7a..fig9c, summary, thm1, lemma2, open1mp, patterns, noc, all (ignored when -spec/-source is given)")
		trials  = flag.Int("trials", 0, "trials per point (0 = spec value or default 400; the paper used 50000)")
		seed    = flag.Int64("seed", 0, "seed offset added to each sweep's base seed")
		csvDir  = flag.String("csv", "", "directory for streamed CSV output (optional)")
		jsonl   = flag.String("jsonl", "", "file for streamed JSON-lines output (optional, sweeps only)")
		md      = flag.Bool("md", false, "render tables as markdown instead of aligned text")
		pols    = flag.String("policies", "", "comma-separated policy list, applied uniformly to every experiment that evaluates policies (registered: "+strings.Join(solve.Policies(), ", ")+")")
		spec    = flag.String("spec", "", "JSON sweep spec file to run (see examples/specs/)")
		source  = flag.String("source", "", "build a sweep from flags: scenario source name (registered: "+strings.Join(scenario.Sources(), ", ")+")")
		meshGe  = flag.String("mesh", "", "mesh geometry PxQ for -source sweeps (default 8x8)")
		topoGe  = flag.String("topology", "", "non-mesh platform for -source sweeps, e.g. torus:8x8 or circulant:27:1,3,9 (mutually exclusive with -mesh; needs topology-capable -policies like TABLE)")
		axis    = flag.String("axis", "", "sweep axis for -source sweeps: n, weight, length, rate (default: single point)")
		points  = flag.String("points", "", "comma-separated x-values for -axis")
		nComms  = flag.Int("n", 0, "base communication count for -source sweeps (default 30 for the random family)")
		wmin    = flag.Float64("wmin", 0, "minimum weight Mb/s for -source sweeps (default 100 when no -rate)")
		wmax    = flag.Float64("wmax", 0, "maximum weight Mb/s for -source sweeps (default 1500 when no -rate)")
		rate    = flag.Float64("rate", 0, "fixed per-flow rate Mb/s for the pattern sources")
		length  = flag.Int("length", 0, "exact Manhattan length for the random family")
		workers = flag.Int("workers", 0, "persistent sweep workers on the work-stealing scheduler (0 = all cores); output is byte-identical at every worker count")
		resume  = flag.Bool("resume", false, "resume an interrupted sweep from the streamed CSV in -csv (skips completed points)")
		optgap  = flag.Bool("optgap", false, "run the sweep as an optimality-gap report: each policy's mean power ratio against the exact OPT on the same instances (keep meshes and -n small)")
		optSt   = flag.Int("optstates", 0, "per-instance OPT node budget for -optgap (0 = the default; unsolved instances are reported, not fatal)")
		prog    = flag.Bool("progress", false, "report per-point progress on stderr")
		cpuProf = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf = flag.String("memprofile", "", "write a pprof heap profile (post-run allocations) to this file")
	)
	flag.Parse()
	os.Exit(profiledRun(*cpuProf, *memProf, cfg{
		exp: *exp, trials: *trials, seed: *seed, csvDir: *csvDir, jsonl: *jsonl,
		md: *md, policies: parseList(*pols), specFile: *spec, source: *source,
		mesh: *meshGe, topology: *topoGe, axis: *axis, points: *points, n: *nComms,
		wmin: *wmin, wmax: *wmax, rate: *rate, length: *length,
		workers: *workers, resume: *resume, progress: *prog,
		optgap: *optgap, optStates: *optSt,
	}))
}

// profiledRun executes the run bracketed by the optional pprof profiles,
// returning the process exit code — a separate frame so the profile
// flushing defers also cover the error path (os.Exit skips defers).
func profiledRun(cpuProf, memProf string, c cfg) int {
	if cpuProf != "" {
		f, err := os.Create(cpuProf)
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
	if memProf != "" {
		defer func() {
			f, err := os.Create(memProf)
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
	source    string
	mesh      string
	topology  string
	axis      string
	points    string
	n         int
	wmin      float64
	wmax      float64
	rate      float64
	length    int
	workers   int
	resume    bool
	progress  bool
	optgap    bool
	optStates int
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

// policyFree are the canned experiments that compare fixed routings and
// genuinely cannot honor a -policies list.
var policyFree = map[string]bool{"fig2": true, "thm1": true, "lemma2": true, "open1mp": true}

func run(c cfg) error {
	if c.csvDir != "" {
		if err := os.MkdirAll(c.csvDir, 0o755); err != nil {
			return err
		}
	}
	if c.resume && c.csvDir == "" {
		return fmt.Errorf("-resume needs -csv: the streamed CSV is the checkpoint")
	}
	if c.optgap && c.resume {
		return fmt.Errorf("-optgap does not support -resume: gap sweeps are small enough to rerun")
	}

	// Declarative sweeps: a spec file, or a spec built from flags.
	if c.specFile != "" || c.source != "" {
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
		if c.policies != nil {
			// -policies applies uniformly to every policy-evaluating
			// experiment; the fixed comparisons are skipped loudly rather
			// than silently ignoring the list.
			kept := ids[:0]
			for _, id := range ids {
				if policyFree[id] || (id == "noc" && len(c.policies) != 1) {
					fmt.Fprintf(os.Stderr, "experiments: note: skipping %s (-policies does not apply: %s)\n",
						id, policyFreeReason(id, c.policies))
					continue
				}
				kept = append(kept, id)
			}
			ids = kept
		}
	}
	for _, id := range ids {
		if c.policies != nil && c.exp != "all" {
			if policyFree[id] {
				return fmt.Errorf("%s: -policies does not apply: %s", id, policyFreeReason(id, c.policies))
			}
			if id == "noc" && len(c.policies) != 1 {
				return fmt.Errorf("noc: -policies does not apply: %s", policyFreeReason(id, c.policies))
			}
		}
		if err := c.runOne(id); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
	}
	return nil
}

func policyFreeReason(id string, policies []string) string {
	if id == "noc" {
		return fmt.Sprintf("the simulator replays exactly one routing, got %d policies", len(policies))
	}
	return "it compares fixed routings from the paper"
}

// buildSpec loads the -spec file or assembles a spec from the -source
// flag family, then applies the uniform overrides (-trials, -seed,
// -policies).
func (c cfg) buildSpec() (scenario.Spec, error) {
	if c.specFile != "" && c.source != "" {
		return scenario.Spec{}, fmt.Errorf("-spec and -source are mutually exclusive")
	}
	var sp scenario.Spec
	if c.specFile != "" {
		var err error
		if sp, err = scenario.LoadSpec(c.specFile); err != nil {
			return scenario.Spec{}, err
		}
	} else {
		sp = scenario.Spec{
			Source:   c.source,
			Mesh:     c.mesh,
			Topology: c.topology,
			Axis:     c.axis,
			Params:   scenario.Params{N: c.n, WMin: c.wmin, WMax: c.wmax, Rate: c.rate, Length: c.length},
		}
		// Default the weight range only when the user set no weight knob at
		// all (a lone -wmin/-wmax stays as given and fails loudly in Bind);
		// default -n only for the random family — every other source has
		// its own documented default (hotspot: all cores, pipeline: the
		// whole mesh, trace: a tuned light load).
		if c.rate == 0 && c.wmin == 0 && c.wmax == 0 {
			sp.Params.WMin, sp.Params.WMax = 100, 1500
		}
		if sp.Params.N == 0 && strings.EqualFold(c.source, "uniform") {
			sp.Params.N = 30
		}
		if c.points != "" {
			for _, f := range parseList(c.points) {
				x, err := strconv.ParseFloat(f, 64)
				if err != nil {
					return scenario.Spec{}, fmt.Errorf("-points: %w", err)
				}
				sp.Points = append(sp.Points, x)
			}
		}
		sp.ID = c.source
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
// Under -optgap the same spec instead streams the optimality-gap report:
// every policy against the exact branch-and-bound on the same seeded
// instances, as a table on stdout and <id>_optgap.csv under -csv.
// SIGINT/SIGTERM cancel either sweep instead of killing the process
// mid-write: workers drain and files close with whole rows.
func (c cfg) runSweep(sp scenario.Spec) error {
	id := sp.ID
	if id == "" {
		id = "sweep"
	}
	var closers []io.Closer
	defer func() {
		for _, cl := range closers {
			cl.Close()
		}
	}()
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	opt := experiments.SweepOptions{Workers: c.workers, Context: ctx}

	if c.optgap {
		gts := experiments.NewGapTableSink()
		sinks := []experiments.GapSink{gts}
		if c.csvDir != "" {
			gw, err := openStream(filepath.Join(c.csvDir, sanitize(id+"_optgap")+".csv"), false, -1)
			if err != nil {
				return err
			}
			closers = append(closers, gw)
			sinks = append(sinks, experiments.NewGapCSVSink(gw))
		}
		if err := experiments.OptGap(sp, opt, c.optStates, sinks...); err != nil {
			return err
		}
		return c.render(gts.Table())
	}

	ts := experiments.NewTableSink()
	sinks := []experiments.Sink{ts}
	start := 0
	if c.csvDir != "" {
		powPath := filepath.Join(c.csvDir, sanitize(id+"_power")+".csv")
		failPath := filepath.Join(c.csvDir, sanitize(id+"_failures")+".csv")
		var powEnd, failEnd int64
		if c.resume {
			var err error
			if start, powEnd, failEnd, err = resumePoint(powPath, failPath); err != nil {
				return err
			}
		}
		// With nothing checkpointed the resume is a fresh start: truncate,
		// so a header-only file is not appended with a second header. A
		// real checkpoint is truncated to its last complete row (a kill
		// mid-flush can leave a torn final line).
		pw, err := openStream(powPath, start > 0, powEnd)
		if err != nil {
			return err
		}
		closers = append(closers, pw)
		fw, err := openStream(failPath, start > 0, failEnd)
		if err != nil {
			return err
		}
		closers = append(closers, fw)
		sinks = append(sinks, experiments.NewCSVSink(pw, fw))
	}
	if c.jsonl != "" {
		jw, err := openStream(c.jsonl, c.resume && start > 0, -1)
		if err != nil {
			return err
		}
		closers = append(closers, jw)
		sinks = append(sinks, experiments.NewJSONLSink(jw))
	}
	if c.progress {
		sinks = append(sinks, experiments.NewProgressSink(os.Stderr))
	}
	// The counter sits last in the sink stack, so a point counts as
	// checkpointed only after the CSV/JSONL sinks ahead of it flushed it
	// to disk — the index the resume hint reports is always replayable.
	pc := &pointCounter{}
	sinks = append(sinks, pc)
	opt.Start = start
	err := experiments.Sweep(sp, opt, sinks...)
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
	np, fr := ts.Tables()
	if err := c.render(np); err != nil {
		return err
	}
	return c.render(fr)
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

// openStream opens a sink target. appendMode continues a checkpoint:
// the file is first truncated to checkpointEnd (the end of its last
// complete row; -1 keeps the current size) and writes append after it.
// Otherwise the file starts fresh.
func openStream(path string, appendMode bool, checkpointEnd int64) (*streamFile, error) {
	flags := os.O_CREATE | os.O_WRONLY
	if !appendMode {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, err
	}
	if appendMode {
		if checkpointEnd >= 0 {
			if err := f.Truncate(checkpointEnd); err != nil {
				f.Close()
				return nil, err
			}
		}
		if _, err := f.Seek(0, io.SeekEnd); err != nil {
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

// resumePoint derives the resume index from the streamed CSV checkpoint:
// the number of complete data rows, and the byte offsets the files must
// be truncated to (a kill mid-flush can leave a torn final line, which
// does not count as a checkpointed row). The lower of the two files wins
// when they disagree by the one row an interrupt can tear.
func resumePoint(powPath, failPath string) (start int, powEnd, failEnd int64, err error) {
	pn, pEnd, err := countCSVRows(powPath, 0)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("-resume: %w", err)
	}
	fn, fEnd, err := countCSVRows(failPath, 0)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("-resume: %w", err)
	}
	if pn != fn {
		// The power file streams before the failures file, so an
		// interrupt between the two writes leaves it one row ahead;
		// resume from the shorter file and truncate the longer back.
		if pn != fn+1 {
			return 0, 0, 0, fmt.Errorf("-resume: checkpoint mismatch: %d power rows vs %d failure rows", pn, fn)
		}
		if pn, pEnd, err = countCSVRows(powPath, fn); err != nil {
			return 0, 0, 0, fmt.Errorf("-resume: %w", err)
		}
	}
	return pn, pEnd, fEnd, nil
}

// countCSVRows counts the newline-terminated data rows (lines after the
// header) of a streamed CSV file and returns the byte offset just past
// the last counted line, stopping early at maxRows when positive. A
// missing file means nothing is checkpointed.
func countCSVRows(path string, maxRows int) (rows int, end int64, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	lines := 0
	for {
		line, err := r.ReadString('\n')
		if err == io.EOF {
			// A torn final line (no trailing newline) is not a complete
			// row; it is truncated away on resume.
			break
		}
		if err != nil {
			return 0, 0, err
		}
		lines++
		end += int64(len(line))
		if maxRows > 0 && lines-1 == maxRows {
			break
		}
	}
	rows = lines - 1 // discount the header
	if rows < 0 {
		rows = 0
	}
	return rows, end, nil
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
