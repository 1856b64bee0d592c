package experiments

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/tables"
)

// SweepMeta describes a streaming sweep to its sinks: captions, the
// canonical policy order of every point's value slices, the planned
// x-positions, the resume offset (sinks appending to existing output
// skip their headers when Start is non-zero) and the layout of the
// report's output tables. The JSON tags are the JSONL meta record's.
type SweepMeta struct {
	ID       string    `json:"id,omitempty"`
	Title    string    `json:"title,omitempty"`
	XLabel   string    `json:"xlabel,omitempty"`
	Policies []string  `json:"policies"`
	X        []float64 `json:"x"`
	Trials   int       `json:"trials"`
	Start    int       `json:"-"`
	Layout   Layout    `json:"-"`
}

// PointResult is one fully evaluated sweep point over Trials trials,
// every slice ordered like SweepMeta.Policies. A power sweep fills the
// two figure series (NormPowerInv, FailureRatio); a gap report fills
// MeanGap, Matched and OptSolved (see GapLayout). The JSON tags are the
// JSONL point record's, which carries the series of its report only (an
// absent opt_solved is 0).
type PointResult struct {
	Index        int       `json:"index"`
	X            float64   `json:"x"`
	Trials       int       `json:"-"`
	NormPowerInv []float64 `json:"norm_power_inv,omitempty"`
	FailureRatio []float64 `json:"failure_ratio,omitempty"`
	MeanGap      []float64 `json:"mean_gap,omitempty"`
	Matched      []int     `json:"matched,omitempty"`
	OptSolved    int       `json:"opt_solved,omitempty"`
}

// Sink consumes a sweep incrementally: Begin once with the metadata,
// Point once per evaluated x-position in order, End once after the last
// point. Long sweeps flow through sinks point by point, so partial output
// exists the moment a point finishes — the streaming contract behind
// checkpointed CSV/JSONL files — and a sink may allocate per point but
// must never be called on the per-trial path.
type Sink interface {
	Begin(meta SweepMeta) error
	Point(pr PointResult) error
	End() error
}

// ReportTable is one output table of a sweep report: its name (the
// <id>_<Name>.csv file cmd/experiments streams it to), its caption
// suffix, the header cell that follows the policy columns in CSV and in
// text form ("" for none), and the cells of one point after its x-label
// in CSV form and in text form.
type ReportTable struct {
	Name              string
	caption           string
	tailCSV, tailText string
	cells             func(pr PointResult, text bool) []string
}

// Layout is the list of output tables a report writes. The CSV and table
// sinks take it from SweepMeta.Layout and write whatever it holds, so a
// report's output shape is data, not a sink of its own.
type Layout []ReportTable

// PowerLayout is the power sweep's layout: the paper's two figure tables.
var PowerLayout = Layout{
	{Name: "power", caption: "normalized power inverse", cells: floatCells(func(pr PointResult) []float64 { return pr.NormPowerInv })},
	{Name: "failures", caption: "failure ratio", cells: floatCells(func(pr PointResult) []float64 { return pr.FailureRatio })},
}

// floatCells formats one series of a point at the figure precision, the
// same in CSV and text form.
func floatCells(series func(PointResult) []float64) func(PointResult, bool) []string {
	return func(pr PointResult, _ bool) []string {
		vals := series(pr)
		cells := make([]string, len(vals))
		for i, v := range vals {
			cells[i] = fmt.Sprintf("%.*f", floatPrec, v)
		}
		return cells
	}
}

func (rt ReportTable) header(meta SweepMeta, text bool) []string {
	h := append([]string{meta.XLabel}, meta.Policies...)
	tail := rt.tailCSV
	if text {
		tail = rt.tailText
	}
	if tail != "" {
		h = append(h, tail)
	}
	return h
}

func (rt ReportTable) row(pr PointResult, text bool) []string {
	return append([]string{xLabel(pr.X)}, rt.cells(pr, text)...)
}

// floatPrec is the cell precision of the figure tables and CSVs.
const floatPrec = 3

// xLabel formats an x-position the way the figure tables always have.
func xLabel(x float64) string { return fmt.Sprintf("%g", x) }

// CSVSink streams each table of the report's layout as CSV rows to its
// writer, the i-th writer taking the i-th table (for a power sweep: the
// normalized inverse power, then the failure ratios). Where a layout's
// CSV and text cells agree, as in PowerLayout, the output is
// byte-identical to Table.WriteCSV over the TableSink tables (shared
// tables.CSVLine formatter); on resume (meta.Start > 0) the headers are
// suppressed so rows append seamlessly to an existing file.
type CSVSink struct {
	W      []io.Writer
	layout Layout
}

// NewCSVSink returns a CSV sink over one writer per layout table.
func NewCSVSink(w ...io.Writer) *CSVSink { return &CSVSink{W: w} }

// Begin implements Sink.
func (s *CSVSink) Begin(meta SweepMeta) error {
	if len(s.W) != len(meta.Layout) {
		return fmt.Errorf("experiments: CSV sink has %d writers for %d tables", len(s.W), len(meta.Layout))
	}
	s.layout = meta.Layout
	if meta.Start > 0 {
		return nil
	}
	for i, rt := range s.layout {
		if _, err := io.WriteString(s.W[i], tables.CSVLine(rt.header(meta, false))); err != nil {
			return err
		}
	}
	return nil
}

// Point implements Sink.
func (s *CSVSink) Point(pr PointResult) error {
	for i, rt := range s.layout {
		if _, err := io.WriteString(s.W[i], tables.CSVLine(rt.row(pr, false))); err != nil {
			return err
		}
	}
	return nil
}

// End implements Sink.
func (s *CSVSink) End() error { return nil }

// JSONLSink streams the sweep as JSON lines: one meta record (suppressed
// on resume), then one point record per evaluated x-position — the
// machine-readable incremental format for long sweeps.
type JSONLSink struct {
	W io.Writer
}

// NewJSONLSink returns a JSON-lines sink over w.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{W: w} }

// Begin implements Sink.
func (s *JSONLSink) Begin(meta SweepMeta) error {
	if meta.Start > 0 {
		return nil
	}
	return s.emit(struct {
		Type string `json:"type"`
		SweepMeta
	}{"meta", meta})
}

// Point implements Sink.
func (s *JSONLSink) Point(pr PointResult) error {
	return s.emit(struct {
		Type string `json:"type"`
		PointResult
	}{"point", pr})
}

// End implements Sink.
func (s *JSONLSink) End() error { return nil }

func (s *JSONLSink) emit(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = s.W.Write(append(data, '\n'))
	return err
}

// TableSink accumulates the sweep into one aligned text table per table
// of the report's layout (for a power sweep, the paper's two figure
// tables). Alignment needs every row, so the tables are complete only
// after End; use the streaming sinks for incremental output.
type TableSink struct {
	layout Layout
	tables []*tables.Table
}

// NewTableSink returns an accumulating table sink.
func NewTableSink() *TableSink { return &TableSink{} }

// Begin implements Sink.
func (s *TableSink) Begin(meta SweepMeta) error {
	title := meta.Title
	if meta.Start > 0 {
		// A resumed stream only carries the remaining points; say so
		// instead of rendering a silently truncated table (the checkpoint
		// CSV holds the complete sweep).
		title = fmt.Sprintf("%s (resumed at point %d/%d — earlier rows in the CSV checkpoint)",
			title, meta.Start+1, len(meta.X))
	}
	s.layout = meta.Layout
	s.tables = make([]*tables.Table, len(s.layout))
	for i, rt := range s.layout {
		s.tables[i] = tables.New(title+" — "+rt.caption, rt.header(meta, true)...)
	}
	return nil
}

// Point implements Sink.
func (s *TableSink) Point(pr PointResult) error {
	for i, rt := range s.layout {
		s.tables[i].AddRow(rt.row(pr, true)...)
	}
	return nil
}

// End implements Sink.
func (s *TableSink) End() error { return nil }

// Tables returns the accumulated tables in layout order (nil before
// Begin).
func (s *TableSink) Tables() []*tables.Table { return s.tables }

// ProgressSink reports sweep progress one line per completed point —
// the operator's heartbeat on long sweeps, typically over stderr.
type ProgressSink struct {
	W io.Writer

	meta SweepMeta
}

// NewProgressSink returns a progress sink over w.
func NewProgressSink(w io.Writer) *ProgressSink { return &ProgressSink{W: w} }

// Begin implements Sink.
func (s *ProgressSink) Begin(meta SweepMeta) error {
	s.meta = meta
	if meta.Start > 0 {
		_, err := fmt.Fprintf(s.W, "%s: resuming at point %d/%d\n", s.meta.ID, meta.Start+1, len(meta.X))
		return err
	}
	return nil
}

// Point implements Sink.
func (s *ProgressSink) Point(pr PointResult) error {
	_, err := fmt.Fprintf(s.W, "%s: point %d/%d (x=%s) done\n",
		s.meta.ID, pr.Index+1, len(s.meta.X), xLabel(pr.X))
	return err
}

// End implements Sink.
func (s *ProgressSink) End() error {
	_, err := fmt.Fprintf(s.W, "%s: sweep complete (%d points)\n", s.meta.ID, len(s.meta.X))
	return err
}
