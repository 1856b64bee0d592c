package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/workload"
)

func TestRegistryLookup(t *testing.T) {
	for _, name := range []string{"uniform", "bitcomp", "bitrev", "shuffle", "tornado",
		"neighbor", "transpose", "stencil", "pipeline", "hotspot", "trace"} {
		if _, err := Lookup(name); err != nil {
			t.Errorf("Lookup(%q): %v", name, err)
		}
		if _, err := Lookup(strings.ToUpper(name)); err != nil {
			t.Errorf("Lookup is not case-insensitive for %q: %v", name, err)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown source accepted")
	}
	names := Sources()
	if len(names) < 11 {
		t.Errorf("Sources() = %v, want at least the 11 built-ins", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Sources() not sorted: %v", names)
		}
	}
}

// Every deterministic source draws identically for equal seeds and
// differently (in rates at least) for different seeds when randomized.
func TestDrawDeterminism(t *testing.T) {
	m := mesh.MustNew(8, 8)
	p := Params{N: 12, WMin: 100, WMax: 900}
	for _, name := range []string{"uniform", "tornado", "hotspot", "stencil"} {
		d1, err := Bind(name, m, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d2, err := Bind(name, m, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a, err := d1.Draw(7, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		aCopy := append(comm.Set(nil), a...)
		b, err := d2.Draw(7, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(aCopy, b) {
			t.Errorf("%s: same seed, different draws", name)
		}
		c, err := d1.Draw(8, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if reflect.DeepEqual(aCopy, c) {
			t.Errorf("%s: different seeds, identical draws", name)
		}
	}
}

// A draw depends only on its seed, never on the drawer's history — a
// drawer that has served other seeds must reproduce a fresh drawer's
// output exactly (the pooled engine hands trials to drawers in
// scheduler-dependent order).
func TestDrawHistoryIndependent(t *testing.T) {
	m := mesh.MustNew(8, 8)
	p := Params{N: 5, WMin: 100, WMax: 900}
	for _, name := range []string{"uniform", "hotspot", "tornado"} {
		warm, err := Bind(name, m, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for seed := int64(1); seed <= 6; seed++ {
			if _, err := warm.Draw(seed, nil); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		fresh, err := Bind(name, m, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := warm.Draw(777, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		gotCopy := append(comm.Set(nil), got...)
		want, err := fresh.Draw(777, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(gotCopy, want) {
			t.Errorf("%s: draw depends on drawer history:\nwarm  %v\nfresh %v", name, gotCopy, want)
		}
	}
}

// Hotspot rejects nonsensical source counts at bind time.
func TestHotspotBindValidation(t *testing.T) {
	m := mesh.MustNew(8, 8)
	if _, err := Bind("hotspot", m, Params{N: -5, Rate: 300}); err == nil {
		t.Error("negative hotspot source count accepted")
	}
	if _, err := Bind("hotspot", m, Params{N: 64, Rate: 300}); err == nil {
		t.Error("more hotspot sources than non-sink cores accepted")
	}
}

// Drawers reuse the destination buffer across draws.
func TestDrawReusesBuffer(t *testing.T) {
	m := mesh.MustNew(8, 8)
	d, err := Bind("uniform", m, Params{N: 20, WMin: 100, WMax: 500})
	if err != nil {
		t.Fatal(err)
	}
	set, err := d.Draw(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ptr := &set[0]
	set2, err := d.Draw(2, set)
	if err != nil {
		t.Fatal(err)
	}
	if &set2[0] != ptr {
		t.Error("Draw did not reuse the destination buffer")
	}
}

// The bit-defined patterns on a non-power-of-two mesh surface the typed
// workload error with a clear message.
func TestPatternSizeErrorSurfaced(t *testing.T) {
	m := mesh.MustNew(6, 6)
	for _, name := range []string{"bitcomp", "bitrev", "shuffle"} {
		_, err := Bind(name, m, Params{Rate: 500})
		if err == nil {
			t.Fatalf("%s on 6x6 accepted", name)
		}
		var pse *workload.PatternSizeError
		if !errors.As(err, &pse) {
			t.Errorf("%s on 6x6: error %v is not a *workload.PatternSizeError", name, err)
		}
		if pse != nil && pse.Cores != 36 {
			t.Errorf("%s: PatternSizeError.Cores = %d, want 36", name, pse.Cores)
		}
		if !strings.Contains(err.Error(), "power-of-two") {
			t.Errorf("%s: message %q does not explain the constraint", name, err)
		}
	}
	// Power-of-two meshes bind fine, including the 16x16 scale-up.
	for _, geom := range [][2]int{{8, 8}, {16, 16}, {4, 8}} {
		m := mesh.MustNew(geom[0], geom[1])
		if _, err := Bind("bitrev", m, Params{Rate: 500}); err != nil {
			t.Errorf("bitrev on %dx%d: %v", geom[0], geom[1], err)
		}
	}
}

// 1×N edge meshes: power-of-two row meshes support the bit patterns;
// degenerate cases fail loudly instead of panicking or producing empty
// sweeps.
func TestEdgeMeshes(t *testing.T) {
	row := mesh.MustNew(1, 8)
	for _, name := range []string{"bitcomp", "bitrev", "shuffle", "tornado", "neighbor"} {
		d, err := Bind(name, row, Params{Rate: 300})
		if err != nil {
			t.Errorf("%s on 1x8: %v", name, err)
			continue
		}
		set, err := d.Draw(1, nil)
		if err != nil {
			t.Errorf("%s on 1x8: %v", name, err)
			continue
		}
		if err := set.Validate(row); err != nil {
			t.Errorf("%s on 1x8: invalid set: %v", name, err)
		}
	}
	// A 1-core mesh has no traffic to generate: every source must error at
	// bind, not panic (the shuffle rotation degenerates to the identity).
	one := mesh.MustNew(1, 1)
	for _, name := range []string{"uniform", "bitcomp", "bitrev", "shuffle", "tornado",
		"neighbor", "transpose", "stencil", "pipeline", "hotspot", "trace"} {
		if _, err := Bind(name, one, Params{N: 4, Rate: 300, WMin: 100, WMax: 200}); err == nil {
			t.Errorf("%s on 1x1 bound without error", name)
		}
	}
	// Tornado on a single column degenerates to no traffic; the bind says so.
	if _, err := Bind("tornado", mesh.MustNew(8, 1), Params{Rate: 300}); err == nil {
		t.Error("tornado on 8x1 (no traffic) bound without error")
	}
	// Transpose needs a square mesh.
	if _, err := Bind("transpose", mesh.MustNew(4, 8), Params{Rate: 300}); err == nil {
		t.Error("transpose on 4x8 bound without error")
	}
}

// Every generated set is structurally valid on its mesh, across sources
// and both acceptance mesh sizes.
func TestAllSourcesProduceValidSets(t *testing.T) {
	for _, geom := range [][2]int{{8, 8}, {16, 16}} {
		m := mesh.MustNew(geom[0], geom[1])
		for _, name := range Sources() {
			if name == "trace" {
				continue // exercised separately (runs a full simulation)
			}
			d, err := Bind(name, m, Params{N: 10, WMin: 100, WMax: 500})
			if err != nil {
				t.Errorf("%s on %v: %v", name, m, err)
				continue
			}
			set, err := d.Draw(3, nil)
			if err != nil {
				t.Errorf("%s on %v: %v", name, m, err)
				continue
			}
			if len(set) == 0 {
				t.Errorf("%s on %v: empty set", name, m)
			}
			if err := set.Validate(m); err != nil {
				t.Errorf("%s on %v: %v", name, m, err)
			}
		}
	}
}

// The trace source replays simulator observations: deterministic per
// seed, rates bounded by the offered load.
func TestTraceSource(t *testing.T) {
	m := mesh.MustNew(8, 8)
	p := Params{N: 8, WMin: 100, WMax: 600}
	d, err := Bind("trace", m, p)
	if err != nil {
		t.Fatal(err)
	}
	a, err := d.Draw(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("trace draw produced no traffic")
	}
	if err := a.Validate(m); err != nil {
		t.Fatal(err)
	}
	for _, c := range a {
		// Goodput can exceed the offered rate only by bounded packet
		// quantization over the measurement window.
		if c.Rate <= 0 || c.Rate > p.WMax*1.5 {
			t.Errorf("traced rate %g outside plausible range", c.Rate)
		}
	}
	aCopy := append(comm.Set(nil), a...)
	b, err := d.Draw(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(aCopy, b) {
		t.Error("trace source is not deterministic in the seed")
	}
}

// raceBuild is set by race_test.go in -race builds.
var raceBuild bool

// A warmed trace drawer redraws without rebuilding its solver or its
// simulator: PR routes on the drawer's kept workspace. The draw reads
// ~10 allocations, most of them the simulator's per-run results;
// routing each attempt on a fresh workspace read ~550.
func TestTraceDrawAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts differ under the race detector")
	}
	m := mesh.MustNew(8, 8)
	d, err := Bind("trace", m, Params{N: 12, WMin: 100, WMax: 900})
	if err != nil {
		t.Fatal(err)
	}
	set, err := d.Draw(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		set, err = d.Draw(5, set)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 20 {
		t.Errorf("warmed trace draw allocates %.0f times, want <= 20", allocs)
	}
}

func TestParseMesh(t *testing.T) {
	for _, tc := range []struct {
		in   string
		p, q int
	}{{"8x8", 8, 8}, {"16X16", 16, 16}, {" 4 x 12 ", 4, 12}, {"1x8", 1, 8}} {
		p, q, err := ParseMesh(tc.in)
		if err != nil || p != tc.p || q != tc.q {
			t.Errorf("ParseMesh(%q) = %d,%d,%v, want %d,%d", tc.in, p, q, err, tc.p, tc.q)
		}
	}
	for _, bad := range []string{"", "8", "x8", "8x", "0x8", "-1x4", "8x8x8", "axb"} {
		if _, _, err := ParseMesh(bad); err == nil {
			t.Errorf("ParseMesh(%q) accepted", bad)
		}
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	sp := Spec{
		ID: "tornado16", Title: "tornado sweep", XLabel: "rate",
		Mesh: "16x16", Source: "tornado",
		Params: Params{WMin: 100, WMax: 900, WBand: 0.2},
		Axis:   AxisRate, Points: []float64{100, 300, 500},
		Trials: 7, Seed: 42, Policies: []string{"XY", "PR"}, Power: "continuous",
	}
	var buf bytes.Buffer
	if err := sp.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sp) {
		t.Errorf("round trip changed the spec:\n got %+v\nwant %+v", got, sp)
	}
}

func TestDecodeJSONRejectsBadSpecs(t *testing.T) {
	for name, raw := range map[string]string{
		"unknown field":  `{"source": "uniform", "typo": 3}`,
		"unknown source": `{"source": "nope"}`,
		"unknown axis":   `{"axis": "frequency", "points": [1]}`,
		"axis no points": `{"axis": "n"}`,
		"ignored axis":   `{"source": "uniform", "axis": "rate", "points": [100, 200]}`,
		"ignored axis 2": `{"source": "tornado", "axis": "length", "points": [2, 4]}`,
		"bad mesh":       `{"mesh": "8by8"}`,
		"bad power":      `{"power": "cubic"}`,
		"neg trials":     `{"trials": -1}`,
	} {
		if _, err := DecodeJSON(strings.NewReader(raw)); err == nil {
			t.Errorf("%s: spec %s accepted", name, raw)
		}
	}
}

// At applies exactly one axis per point and leaves the base params alone.
func TestSpecAt(t *testing.T) {
	sp := Spec{Params: Params{N: 10, WMin: 100, WMax: 500}, Axis: AxisN}
	if got := sp.At(40).N; got != 40 {
		t.Errorf("AxisN: N = %d", got)
	}
	sp.Axis = AxisLength
	if got := sp.At(6).Length; got != 6 {
		t.Errorf("AxisLength: Length = %d", got)
	}
	sp.Axis = AxisRate
	if got := sp.At(250).Rate; got != 250 {
		t.Errorf("AxisRate: Rate = %g", got)
	}
	sp.Axis = AxisWeight
	p := sp.At(1000)
	if p.WMin != 1000*(1-DefaultWBand) || p.WMax != 1000*(1+DefaultWBand) {
		t.Errorf("AxisWeight: band [%g, %g]", p.WMin, p.WMax)
	}
	sp.Params.WBand = 0.5
	p = sp.At(1000)
	if p.WMin != 500 || p.WMax != 1500 {
		t.Errorf("AxisWeight with WBand 0.5: band [%g, %g]", p.WMin, p.WMax)
	}
	// A base Rate would pin every weight point to one value (Rate wins
	// over weight draws in the sources); the weight axis clears it.
	sp.Params.Rate = 400
	if p = sp.At(1000); p.Rate != 0 {
		t.Errorf("AxisWeight left Rate = %g, pinning the sweep", p.Rate)
	}
}

// Points without an axis are rejected: they would re-sample one
// configuration under different labels.
func TestSpecPointsWithoutAxis(t *testing.T) {
	sp := Spec{Source: "uniform", Params: Params{N: 5, WMin: 100, WMax: 500}, Points: []float64{10, 20}}
	if err := sp.Validate(); err == nil {
		t.Error("points without an axis accepted")
	}
}

// Specs marshal compactly: zero fields are omitted.
func TestSpecOmitsZeroFields(t *testing.T) {
	data, err := json.Marshal(Spec{Source: "uniform"})
	if err != nil {
		t.Fatal(err)
	}
	if got := string(data); got != `{"source":"uniform"}` {
		t.Errorf("Marshal = %s", got)
	}
}
