package tables

import (
	"strings"
	"testing"
)

func TestRenderAlignment(t *testing.T) {
	tb := New("demo", "x", "longheader", "y")
	tb.AddRow("1", "a", "bb")
	tb.AddRow("100", "b", "c")
	out := tb.String()
	if !strings.Contains(out, "== demo ==") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// All data lines equal width (aligned columns).
	if len(lines[1]) != len(lines[2]) {
		t.Errorf("header and separator widths differ:\n%s", out)
	}
}

func TestAddRowPadsShortRows(t *testing.T) {
	tb := New("", "a", "b", "c")
	tb.AddRow("1")
	if len(tb.Rows[0]) != 3 {
		t.Fatalf("row not padded: %v", tb.Rows[0])
	}
}

func TestWriteCSV(t *testing.T) {
	tb := New("", "name", "value")
	tb.AddRow("plain", "1")
	tb.AddRow("with,comma", "2")
	tb.AddRow(`with"quote`, "3")
	var b strings.Builder
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := "name,value\nplain,1\n\"with,comma\",2\n\"with\"\"quote\",3\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestCSVLineQuoting(t *testing.T) {
	got := CSVLine([]string{"a", "b,c", `d"e`, "f\ng"})
	want := "a,\"b,c\",\"d\"\"e\",\"f\ng\"\n"
	if got != want {
		t.Errorf("CSVLine = %q, want %q", got, want)
	}
}

func TestWriteMarkdown(t *testing.T) {
	tb := New("T|itle", "h1", "h2")
	tb.AddRow("a|b", "c")
	var buf strings.Builder
	if err := tb.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	want := "**T|itle**\n\n| h1 | h2 |\n| --- | --- |\n| a\\|b | c |\n"
	if buf.String() != want {
		t.Errorf("WriteMarkdown:\n%q\nwant\n%q", buf.String(), want)
	}
}
