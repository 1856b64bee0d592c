// Package tables renders experiment results as aligned ASCII tables and
// CSV files, the output formats of cmd/experiments.
package tables

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// New returns a table with the given title and column headers.
func New(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	if err := t.Render(&b); err != nil {
		return err.Error()
	}
	return b.String()
}

// CSVLine formats one CSV record with RFC 4180 quoting (cells containing
// commas, quotes or newlines are quoted), newline-terminated. It is the
// shared formatter of Table.WriteCSV and the streaming CSV sinks, so
// accumulated and streamed output can never diverge byte-wise.
func CSVLine(cells []string) string {
	parts := make([]string, len(cells))
	for i, c := range cells {
		if strings.ContainsAny(c, ",\"\n") {
			c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
		}
		parts[i] = c
	}
	return strings.Join(parts, ",") + "\n"
}

// WriteCSV writes the table as CSV (headers first). Cells containing
// commas or quotes are quoted per RFC 4180.
func (t *Table) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, CSVLine(t.Headers)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := io.WriteString(w, CSVLine(row)); err != nil {
			return err
		}
	}
	return nil
}

// MarkdownRow formats one GitHub-flavored markdown table row,
// newline-terminated. Pipes in cells are escaped.
func MarkdownRow(cells []string) string {
	parts := make([]string, len(cells))
	for i, c := range cells {
		parts[i] = strings.ReplaceAll(c, "|", "\\|")
	}
	return "| " + strings.Join(parts, " | ") + " |\n"
}

// MarkdownSeparator returns the header/body separator row of a markdown
// table with n columns.
func MarkdownSeparator(n int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = "---"
	}
	return "| " + strings.Join(parts, " | ") + " |\n"
}

// WriteMarkdown writes the table as a GitHub-flavored markdown table,
// with the title (when set) as a bold caption line above it.
func (t *Table) WriteMarkdown(w io.Writer) error {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.Title)
	}
	b.WriteString(MarkdownRow(t.Headers))
	b.WriteString(MarkdownSeparator(len(t.Headers)))
	for _, row := range t.Rows {
		b.WriteString(MarkdownRow(row))
	}
	_, err := io.WriteString(w, b.String())
	return err
}
