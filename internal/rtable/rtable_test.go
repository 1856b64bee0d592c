package rtable

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/comm"
	"repro/internal/heur"
	"repro/internal/mesh"
	_ "repro/internal/multipath" // registers 2MP
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/solve"
	"repro/internal/workload"
)

// Every heuristic's routing compiles into verifiable tables.
func TestBuildAndVerifyAllHeuristics(t *testing.T) {
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitz()
	set := workload.New(m, 9).Uniform(25, 100, 2000)
	for _, h := range []solve.Solver{heur.XY{}, heur.SG{}, heur.IG{}, heur.TB{}, heur.XYI{}, heur.PR{}} {
		r, err := h.Route(solve.Instance{Mesh: m, Model: model, Comms: set}, solve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		tables, err := Build(r)
		if err != nil {
			t.Fatalf("%s: %v", h.Name(), err)
		}
		if err := tables.Verify(r); err != nil {
			t.Fatalf("%s: %v", h.Name(), err)
		}
	}
}

// Multi-path routings get distinct path indices and verify end to end.
func TestMultiPathTables(t *testing.T) {
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitz()
	set := workload.New(m, 4).Uniform(10, 500, 2500)
	r, err := solve.Route("2MP", solve.Instance{Mesh: m, Model: model, Comms: set}, solve.Options{MaxPaths: 3})
	if err != nil {
		t.Fatal(err)
	}
	tables, err := Build(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := tables.Verify(r); err != nil {
		t.Fatal(err)
	}
	// Each communication contributes 3 paths: the source router holds
	// entries with path indices 0,1,2 for each comm starting there.
	st := tables.Stats()
	if st.Entries == 0 || st.Routers == 0 || st.MaxEntries == 0 {
		t.Fatalf("degenerate stats: %+v", st)
	}
}

func TestLookupAndLocalEjection(t *testing.T) {
	m := mesh.MustNew(4, 4)
	g := comm.Comm{ID: 7, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 3, V: 2}, Rate: 100}
	r := route.Routing{Topo: m, Flows: []route.Flow{{Comm: g, Path: route.XY(g.Src, g.Dst)}}}
	tables, err := Build(r)
	if err != nil {
		t.Fatal(err)
	}
	key := FlowKey{CommID: 7, PathIndex: 0}
	p, ok := tables.Lookup(g.Src, key)
	if !ok || p != PortEast {
		t.Errorf("source port = %v (ok=%v), want E", p, ok)
	}
	p, ok = tables.Lookup(g.Dst, key)
	if !ok || p != PortLocal {
		t.Errorf("sink port = %v (ok=%v), want LOCAL", p, ok)
	}
	if _, ok := tables.Lookup(mesh.Coord{U: 4, V: 4}, key); ok {
		t.Error("entry at untouched router")
	}
}

func TestVerifyCatchesTampering(t *testing.T) {
	m := mesh.MustNew(4, 4)
	g := comm.Comm{ID: 1, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 3, V: 3}, Rate: 1}
	r := route.Routing{Topo: m, Flows: []route.Flow{{Comm: g, Path: route.XY(g.Src, g.Dst)}}}
	tables, err := Build(r)
	if err != nil {
		t.Fatal(err)
	}
	// Tamper: flip the entry at the bend.
	key := FlowKey{CommID: 1, PathIndex: 0}
	tables.entries[mesh.Coord{U: 1, V: 3}][key] = PortNorth
	if err := tables.Verify(r); err == nil {
		t.Error("tampered table verified")
	}
	// Remove an entry entirely.
	tables2, _ := Build(r)
	delete(tables2.entries[mesh.Coord{U: 2, V: 3}], key)
	if err := tables2.Verify(r); err == nil {
		t.Error("missing entry verified")
	}
}

func TestBuildRejectsEmptyPath(t *testing.T) {
	m := mesh.MustNew(2, 2)
	g := comm.Comm{ID: 1, Src: mesh.Coord{U: 1, V: 1}, Dst: mesh.Coord{U: 1, V: 2}, Rate: 1}
	r := route.Routing{Topo: m, Flows: []route.Flow{{Comm: g, Path: nil}}}
	if _, err := Build(r); err == nil {
		t.Error("empty path accepted")
	}
}

func TestWriteJSONDeterministicAndParseable(t *testing.T) {
	m := mesh.MustNew(8, 8)
	model := power.KimHorowitz()
	set := workload.New(m, 2).Uniform(10, 100, 1000)
	r, err := heur.PR{}.Route(solve.Instance{Mesh: m, Model: model, Comms: set}, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tables, err := Build(r)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := tables.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := tables.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("serialization not deterministic")
	}
	var rows []map[string]any
	if err := json.Unmarshal(a.Bytes(), &rows); err != nil {
		t.Fatalf("output not valid JSON: %v", err)
	}
	if len(rows) != tables.Stats().Entries {
		t.Errorf("serialized %d rows, stats say %d", len(rows), tables.Stats().Entries)
	}
}

func TestPortString(t *testing.T) {
	names := map[Port]string{PortEast: "E", PortSouth: "S", PortWest: "W", PortNorth: "N", PortLocal: "LOCAL"}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("Port %d = %q, want %q", int(p), p.String(), want)
		}
	}
}
