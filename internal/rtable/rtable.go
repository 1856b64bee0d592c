// Package rtable materializes routings as per-router forwarding tables,
// the "table-based routing" deployment mode the paper names in its
// introduction (the alternative being source routing). Each router maps a
// flow key — communication ID plus path index, so split communications
// keep distinct entries — to an output port; tables are verified by
// walking every flow from source to sink and can be serialized for a
// configuration tool.
package rtable

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/mesh"
	"repro/internal/route"
	"repro/internal/topo"
)

// Port is a router output: one of the four mesh directions or the local
// core ejection port.
type Port int

// The five router ports.
const (
	PortEast Port = iota
	PortSouth
	PortWest
	PortNorth
	PortLocal
)

var portNames = [...]string{"E", "S", "W", "N", "LOCAL"}

// String names the port.
func (p Port) String() string {
	if p < 0 || int(p) >= len(portNames) {
		return fmt.Sprintf("Port(%d)", int(p))
	}
	return portNames[p]
}

func portOf(d mesh.Dir) Port {
	switch d {
	case mesh.East:
		return PortEast
	case mesh.South:
		return PortSouth
	case mesh.West:
		return PortWest
	case mesh.North:
		return PortNorth
	}
	panic(fmt.Sprintf("rtable: invalid direction %v", d))
}

// FlowKey identifies one routed path: the communication ID plus the index
// of the path among that communication's flows (0 for 1-MP routings).
type FlowKey struct {
	CommID    int `json:"comm"`
	PathIndex int `json:"path"`
}

// Tables is the complete table-based routing configuration of a mesh.
type Tables struct {
	Topo topo.Topology
	// entries[core][key] = output port.
	entries map[mesh.Coord]map[FlowKey]Port
}

// Build compiles a routing into per-router tables. Every flow contributes
// one entry per traversed router plus a LOCAL entry at its sink.
func Build(r route.Routing) (*Tables, error) {
	t := &Tables{Topo: r.Topo, entries: make(map[mesh.Coord]map[FlowKey]Port)}
	pathIdx := make(map[int]int)
	for _, f := range r.Flows {
		key := FlowKey{CommID: f.Comm.ID, PathIndex: pathIdx[f.Comm.ID]}
		pathIdx[f.Comm.ID]++
		if len(f.Path) == 0 {
			return nil, fmt.Errorf("rtable: empty path for communication %d", f.Comm.ID)
		}
		for _, l := range f.Path {
			if err := t.add(l.From, key, portOf(l.Dir())); err != nil {
				return nil, err
			}
		}
		if err := t.add(f.Comm.Dst, key, PortLocal); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func (t *Tables) add(core mesh.Coord, key FlowKey, port Port) error {
	if t.entries[core] == nil {
		t.entries[core] = make(map[FlowKey]Port)
	}
	if prev, ok := t.entries[core][key]; ok && prev != port {
		return fmt.Errorf("rtable: conflicting entries at %v for %+v: %v vs %v",
			core, key, prev, port)
	}
	t.entries[core][key] = port
	return nil
}

// Lookup returns the output port for a flow key at a router.
func (t *Tables) Lookup(core mesh.Coord, key FlowKey) (Port, bool) {
	p, ok := t.entries[core][key]
	return p, ok
}

// Verify walks every flow of the routing through the tables and checks
// that the walk reproduces the flow's path and terminates with a LOCAL
// ejection at the sink.
func (t *Tables) Verify(r route.Routing) error {
	pathIdx := make(map[int]int)
	for _, f := range r.Flows {
		key := FlowKey{CommID: f.Comm.ID, PathIndex: pathIdx[f.Comm.ID]}
		pathIdx[f.Comm.ID]++
		cur := f.Comm.Src
		for hop := 0; ; hop++ {
			port, ok := t.Lookup(cur, key)
			if !ok {
				return fmt.Errorf("rtable: no entry at %v for %+v", cur, key)
			}
			if port == PortLocal {
				if cur != f.Comm.Dst {
					return fmt.Errorf("rtable: %+v ejected at %v, sink is %v", key, cur, f.Comm.Dst)
				}
				if hop != len(f.Path) {
					return fmt.Errorf("rtable: %+v ejected after %d hops, path has %d", key, hop, len(f.Path))
				}
				break
			}
			if hop >= len(f.Path) {
				return fmt.Errorf("rtable: %+v overran its %d-hop path", key, len(f.Path))
			}
			want := f.Path[hop]
			if portOf(want.Dir()) != port || want.From != cur {
				return fmt.Errorf("rtable: %+v diverges at %v: table %v, path hop %v", key, cur, port, want)
			}
			cur = want.To
			if hop > t.Topo.NumLinks() {
				return fmt.Errorf("rtable: %+v walk did not terminate", key)
			}
		}
	}
	return nil
}

// Stats summarizes hardware-relevant table sizes.
type Stats struct {
	Routers    int // routers holding at least one entry
	Entries    int // total entries across all routers
	MaxEntries int // largest single router table
}

// Stats computes table-size statistics.
func (t *Tables) Stats() Stats {
	var s Stats
	for _, entries := range t.entries {
		s.Routers++
		s.Entries += len(entries)
		if len(entries) > s.MaxEntries {
			s.MaxEntries = len(entries)
		}
	}
	return s
}

// jsonEntry is the serialized form of one table row.
type jsonEntry struct {
	U    int     `json:"u"`
	V    int     `json:"v"`
	Key  FlowKey `json:"key"`
	Port string  `json:"port"`
}

// WriteJSON emits the tables as a deterministic, sorted JSON array.
func (t *Tables) WriteJSON(w io.Writer) error {
	var rows []jsonEntry
	for core, entries := range t.entries {
		for key, port := range entries {
			rows = append(rows, jsonEntry{U: core.U, V: core.V, Key: key, Port: port.String()})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.U != b.U {
			return a.U < b.U
		}
		if a.V != b.V {
			return a.V < b.V
		}
		if a.Key.CommID != b.Key.CommID {
			return a.Key.CommID < b.Key.CommID
		}
		return a.Key.PathIndex < b.Key.PathIndex
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}
