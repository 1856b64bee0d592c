package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// conservationTolerance is how far a span's children may sum from the
// span itself: the latency analogue of the NoC energy identity.
const conservationTolerance = 0.10

// conservationViolations returns the parents whose children sum to more
// than conservationTolerance away from their own duration.
func conservationViolations(spans []Span) []Span {
	sum := make(map[int]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			sum[s.Parent] += s.Dur()
		}
	}
	var bad []Span
	for id, total := range sum {
		p := spans[id]
		diff := float64(total - p.Dur())
		if diff < 0 {
			diff = -diff
		}
		if diff > conservationTolerance*float64(p.Dur()) {
			bad = append(bad, p)
		}
	}
	return bad
}

func TestAttributeMakesRemainderExplicit(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: "pipeline", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "serve.decode", Start: 0, End: 30},
		{ID: 2, Parent: 0, Name: "solve.route.XY", Start: 30, End: 60},
		{ID: 3, Parent: -1, Name: "http", Start: 0, End: 50}, // a leaf: nothing to attribute
	}
	got := attribute(spans)
	if len(got) != len(spans)+1 {
		t.Fatalf("got %d spans, want one unattributed child added", len(got))
	}
	u := got[len(got)-1]
	if u.Name != unattributed || u.Parent != 0 || u.Dur() != 40 {
		t.Errorf("added %+v, want a 40 ns unattributed child of span 0", u)
	}
	if bad := conservationViolations(got); len(bad) != 0 {
		t.Errorf("attributed spans violate conservation: %+v", bad)
	}
	if r := unattributedRatio(got); r != 0.4 {
		t.Errorf("unattributed ratio %g, want 0.4", r)
	}
}

func TestConservationFlagsOverlappingChildren(t *testing.T) {
	spans := attribute([]Span{
		{ID: 0, Parent: -1, Name: "sweep", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 0, End: 80},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 100},
	})
	if bad := conservationViolations(spans); len(bad) != 1 || bad[0].ID != 0 {
		t.Errorf("violations %+v, want span 0 whose children sum to 160 of 100", bad)
	}
}

// TestTracedRunsConserve runs every workload's traced pass briefly through
// the command, then checks the written span file: every span's children,
// including the explicit unattributed remainder, sum to within 10% of the
// span, and the workload's own layers were measured.
func TestTracedRunsConserve(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	t.Chdir(t.TempDir())
	layer := map[string]string{
		"solve_light":  "serve.decode_us",
		"solve_replay": "noc.run_us",
		"sweep_figure": "scenario.draw_us",
		"sweep_cached": "serve.cache.hit_ratio",
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			args := []string{"--workload", w.name, "--seed", "3", "--seconds", "0.4", "--trace", "1"}
			if code := run(args, &out, &errOut); code != 0 {
				t.Fatalf("exit %d: %s", code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("result %+v", res)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%d per-layer metrics, want %d", len(res.Metrics), len(perLayer))
			}
			if v := res.Metrics[layer[w.name]].Value; v <= 0 {
				t.Errorf("%s = %g, want the workload's own layer measured", layer[w.name], v)
			}
			spans := readSpans(t, filepath.Join(resultsDir, w.name+"-seed3-trace1.spans.jsonl"))
			if len(spans) == 0 {
				t.Fatal("no spans written")
			}
			if bad := conservationViolations(spans); len(bad) != 0 {
				t.Errorf("%d spans whose children do not sum to within 10%%, first %+v", len(bad), bad[0])
			}
		})
	}
}

func readSpans(t *testing.T, path string) []Span {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []Span
	dec := json.NewDecoder(bufio.NewReader(f))
	for {
		var s Span
		if err := dec.Decode(&s); err == io.EOF {
			return spans
		} else if err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
}
