package experiments

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/tables"
)

// SweepMeta describes a streaming sweep to its sinks: captions, the
// canonical policy order of every point's value slices, the planned
// x-positions, and the resume offset (sinks appending to existing output
// skip their headers when Start is non-zero).
type SweepMeta struct {
	ID       string
	Title    string
	XLabel   string
	Policies []string
	X        []float64
	Trials   int
	Start    int
	// MaxStates is a gap sweep's per-instance OPT node budget (0 on power
	// sweeps).
	MaxStates int
}

// PointResult is one fully evaluated sweep point: the two y-values of
// every policy, ordered like SweepMeta.Policies.
type PointResult struct {
	Index        int
	X            float64
	NormPowerInv []float64
	FailureRatio []float64
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

// floatPrec is the cell precision of the figure tables and CSVs.
const floatPrec = 3

// xLabel formats an x-position the way the figure tables always have.
func xLabel(x float64) string { return fmt.Sprintf("%g", x) }

// CSVSink streams the two per-point series as CSV rows: normalized
// inverse power to Power, failure ratios to Failures. Output is
// byte-identical to Table.WriteCSV over the accumulated result (shared
// tables.CSVLine formatter); on resume (meta.Start > 0) the headers are
// suppressed so rows append seamlessly to an existing file.
type CSVSink struct {
	Power    io.Writer
	Failures io.Writer
}

// NewCSVSink returns a CSV sink over the two writers.
func NewCSVSink(power, failures io.Writer) *CSVSink {
	return &CSVSink{Power: power, Failures: failures}
}

// Begin implements Sink.
func (s *CSVSink) Begin(meta SweepMeta) error {
	if meta.Start > 0 {
		return nil
	}
	header := append([]string{meta.XLabel}, meta.Policies...)
	if _, err := io.WriteString(s.Power, tables.CSVLine(header)); err != nil {
		return err
	}
	_, err := io.WriteString(s.Failures, tables.CSVLine(header))
	return err
}

// Point implements Sink.
func (s *CSVSink) Point(pr PointResult) error {
	if _, err := io.WriteString(s.Power, tables.CSVLine(csvRow(pr.X, pr.NormPowerInv))); err != nil {
		return err
	}
	_, err := io.WriteString(s.Failures, tables.CSVLine(csvRow(pr.X, pr.FailureRatio)))
	return err
}

// End implements Sink.
func (s *CSVSink) End() error { return nil }

func csvRow(x float64, vals []float64) []string {
	cells := make([]string, 0, len(vals)+1)
	cells = append(cells, xLabel(x))
	for _, v := range vals {
		cells = append(cells, fmt.Sprintf("%.*f", floatPrec, v))
	}
	return cells
}

// JSONLSink streams the sweep as JSON lines: one meta record (suppressed
// on resume), then one point record per evaluated x-position — the
// machine-readable incremental format for long sweeps.
type JSONLSink struct {
	W io.Writer
}

// NewJSONLSink returns a JSON-lines sink over w.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{W: w} }

type jsonlMeta struct {
	Type     string    `json:"type"` // "meta"
	ID       string    `json:"id,omitempty"`
	Title    string    `json:"title,omitempty"`
	XLabel   string    `json:"xlabel,omitempty"`
	Policies []string  `json:"policies"`
	X        []float64 `json:"x"`
	Trials   int       `json:"trials"`
}

type jsonlPoint struct {
	Type         string    `json:"type"` // "point"
	Index        int       `json:"index"`
	X            float64   `json:"x"`
	NormPowerInv []float64 `json:"norm_power_inv"`
	FailureRatio []float64 `json:"failure_ratio"`
}

// Begin implements Sink.
func (s *JSONLSink) Begin(meta SweepMeta) error {
	if meta.Start > 0 {
		return nil
	}
	return s.emit(jsonlMeta{Type: "meta", ID: meta.ID, Title: meta.Title,
		XLabel: meta.XLabel, Policies: meta.Policies, X: meta.X, Trials: meta.Trials})
}

// Point implements Sink.
func (s *JSONLSink) Point(pr PointResult) error {
	return s.emit(jsonlPoint{Type: "point", Index: pr.Index, X: pr.X,
		NormPowerInv: pr.NormPowerInv, FailureRatio: pr.FailureRatio})
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

// TableSink accumulates the sweep into the two aligned text tables of the
// paper's figures (normalized power inverse, failure ratio). Alignment
// needs every row, so the tables are complete only after End; use the
// streaming sinks for incremental output.
type TableSink struct {
	normPower *tables.Table
	failures  *tables.Table
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
	headers := append([]string{meta.XLabel}, meta.Policies...)
	s.normPower = tables.New(title+" — normalized power inverse", headers...)
	s.failures = tables.New(title+" — failure ratio", headers...)
	return nil
}

// Point implements Sink.
func (s *TableSink) Point(pr PointResult) error {
	s.normPower.AddFloatRow(xLabel(pr.X), floatPrec, pr.NormPowerInv...)
	s.failures.AddFloatRow(xLabel(pr.X), floatPrec, pr.FailureRatio...)
	return nil
}

// End implements Sink.
func (s *TableSink) End() error { return nil }

// Tables returns the two accumulated tables (nil before Begin).
func (s *TableSink) Tables() (normPower, failures *tables.Table) {
	return s.normPower, s.failures
}

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
		_, err := fmt.Fprintf(s.W, "%s: resuming at point %d/%d\n", s.label(), meta.Start+1, len(meta.X))
		return err
	}
	return nil
}

// Point implements Sink.
func (s *ProgressSink) Point(pr PointResult) error {
	_, err := fmt.Fprintf(s.W, "%s: point %d/%d (x=%s) done\n",
		s.label(), pr.Index+1, len(s.meta.X), xLabel(pr.X))
	return err
}

// End implements Sink.
func (s *ProgressSink) End() error {
	_, err := fmt.Fprintf(s.W, "%s: sweep complete (%d points)\n", s.label(), len(s.meta.X))
	return err
}

func (s *ProgressSink) label() string {
	if s.meta.ID != "" {
		return s.meta.ID
	}
	return "sweep"
}
