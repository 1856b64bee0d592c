package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/topo"

	// Register the non-mesh topology families with topo.Parse, so any
	// importer of the scenario layer can validate and resolve every
	// spec's topology field.
	_ "repro/internal/topo/circulant"
	_ "repro/internal/topo/torus"
)

// Sweep axes: the parameter a Spec varies across its points.
const (
	// AxisN sweeps the communication count (Figures 7a–c).
	AxisN = "n"
	// AxisWeight sweeps the average weight; each point x becomes the band
	// U[x·(1−WBand), x·(1+WBand)] (Figures 8a–c).
	AxisWeight = "weight"
	// AxisLength sweeps the exact Manhattan length (Figures 9a–c).
	AxisLength = "length"
	// AxisRate sweeps the fixed per-flow rate of the pattern sources.
	AxisRate = "rate"
)

// DefaultWBand is the relative half-width of the weight band swept by
// AxisWeight when Params.WBand is zero — the Section 6.2 default.
const DefaultWBand = 0.10

// Spec declares a complete sweep: which source draws communication sets
// on which mesh, which parameter varies over which points, how many
// seeded trials evaluate each point, and which policies compete under
// which power model. A Spec round-trips through JSON, so scenarios ship
// as data instead of Go code.
type Spec struct {
	// ID names the sweep (output files, canned-figure aliases).
	ID string `json:"id,omitempty"`
	// Title and XLabel caption rendered tables; both have sensible
	// defaults derived from the spec.
	Title  string `json:"title,omitempty"`
	XLabel string `json:"xlabel,omitempty"`
	// Mesh is "PxQ" (e.g. "8x8", "16x16"); empty means 8x8, the paper's
	// platform.
	Mesh string `json:"mesh,omitempty"`
	// Topology selects a non-mesh platform by topo.Parse spec string
	// (e.g. "torus:8x8", "circulant:27:1,3,9"). Empty means the mesh
	// in Mesh. Mesh platforms stay on the Mesh field — a "mesh:PxQ"
	// topology string is rejected so every sweep has one canonical
	// spelling (and one cache hash).
	Topology string `json:"topology,omitempty"`
	// Source is the registered scenario source; empty means "uniform".
	Source string `json:"source,omitempty"`
	// Params is the base parameter bundle; the swept axis overrides one
	// field per point.
	Params Params `json:"params,omitzero"`
	// Axis names the swept parameter (AxisN, AxisWeight, AxisLength,
	// AxisRate); empty runs a single point at the base params.
	Axis string `json:"axis,omitempty"`
	// Points are the x-values of the sweep.
	Points []float64 `json:"points,omitempty"`
	// Trials is the number of seeded instances per point (0 = the
	// engine's default).
	Trials int `json:"trials,omitempty"`
	// Seed derives every per-trial RNG stream.
	Seed int64 `json:"seed,omitempty"`
	// Policies lists the competing registered routing policies; empty
	// means the paper's heuristic line-up.
	Policies []string `json:"policies,omitempty"`
	// Power selects the link power model: "" or "kim-horowitz" for the
	// paper's discrete DVFS model, "continuous" for the
	// continuous-frequency ablation.
	Power string `json:"power,omitempty"`
}

// ParseMesh parses a "PxQ" mesh geometry ("8x8", "16X16", "4x12") of at
// most topo.MaxCores cores.
func ParseMesh(s string) (p, q int, err error) { return topo.ParseGrid(s) }

// MeshDims returns the spec's mesh dimensions (default 8×8).
func (s Spec) MeshDims() (p, q int, err error) {
	if s.Mesh == "" {
		return 8, 8, nil
	}
	return ParseMesh(s.Mesh)
}

// SourceName returns the spec's source (default "uniform").
func (s Spec) SourceName() string {
	if s.Source == "" {
		return "uniform"
	}
	return s.Source
}

// XValues returns the sweep's x-positions: Points, or a single zero
// point when the spec declares no axis.
func (s Spec) XValues() []float64 {
	if len(s.Points) == 0 {
		return []float64{0}
	}
	return s.Points
}

// At returns the params of the point at x: the base params with the
// swept axis applied.
func (s Spec) At(x float64) Params {
	p := s.Params
	switch s.Axis {
	case AxisN:
		p.N = int(x)
	case AxisLength:
		p.Length = int(x)
	case AxisRate:
		p.Rate = x
	case AxisWeight:
		band := p.WBand
		if band == 0 {
			band = DefaultWBand
		}
		p.WMin, p.WMax = x*(1-band), x*(1+band)
		// A fixed Rate takes precedence over weight draws in every
		// source; sweeping the weight axis means sweeping the band, so
		// the base Rate must not pin all points to one value.
		p.Rate = 0
	}
	return p
}

// DefaultXLabel returns the axis caption used when XLabel is empty.
func (s Spec) DefaultXLabel() string {
	switch s.Axis {
	case AxisN:
		return "number of communications"
	case AxisWeight:
		return "average weight (Mb/s)"
	case AxisLength:
		return "average length (hops)"
	case AxisRate:
		return "per-flow rate (Mb/s)"
	}
	return "x"
}

// Validate checks the spec's declarative shape: mesh geometry, a
// registered source, a known axis with points, sane counts. Param/mesh
// compatibility (pattern size constraints, weight ranges) is checked by
// Source.Bind when the sweep starts.
func (s Spec) Validate() error {
	if _, _, err := s.MeshDims(); err != nil {
		return err
	}
	if s.Topology != "" {
		if s.Mesh != "" {
			return fmt.Errorf("scenario: both mesh %q and topology %q set — a mesh platform uses the mesh field alone", s.Mesh, s.Topology)
		}
		t, err := topo.Parse(s.Topology)
		if err != nil {
			return err
		}
		if t.Name() == "mesh" {
			return fmt.Errorf("scenario: topology %q is a mesh — spell it in the mesh field", s.Topology)
		}
		if s.Axis == AxisLength || s.Params.Length != 0 {
			return fmt.Errorf("scenario: target-length draws are a Manhattan-mesh notion and are not supported on %s", t.Spec())
		}
	}
	src, err := Lookup(s.SourceName())
	if err != nil {
		return err
	}
	switch s.Axis {
	case "", AxisN, AxisWeight, AxisLength, AxisRate:
	default:
		return fmt.Errorf("scenario: unknown sweep axis %q (want %s, %s, %s or %s)",
			s.Axis, AxisN, AxisWeight, AxisLength, AxisRate)
	}
	if s.Axis != "" {
		supported := false
		for _, a := range src.Axes() {
			if a == s.Axis {
				supported = true
				break
			}
		}
		if !supported {
			return fmt.Errorf("scenario: source %q ignores the %q axis (it honors: %s) — the sweep would evaluate identical points",
				src.Name(), s.Axis, strings.Join(src.Axes(), ", "))
		}
	}
	if s.Axis != "" && len(s.Points) == 0 {
		return fmt.Errorf("scenario: axis %q declared with no points", s.Axis)
	}
	if s.Axis == "" && len(s.Points) > 0 {
		return fmt.Errorf("scenario: %d points declared with no sweep axis — the rows would re-sample one configuration under different labels", len(s.Points))
	}
	if s.Trials < 0 {
		return fmt.Errorf("scenario: negative trials %d", s.Trials)
	}
	switch s.Power {
	case "", "kim-horowitz", "continuous":
	default:
		return fmt.Errorf("scenario: unknown power model %q (want kim-horowitz or continuous)", s.Power)
	}
	return nil
}

// EncodeJSON writes the spec as indented JSON.
func (s Spec) EncodeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// DecodeJSON reads one spec from JSON, rejecting unknown fields so typos
// in hand-written spec files fail loudly.
func DecodeJSON(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: decoding spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// LoadSpec reads and validates a spec file.
func LoadSpec(path string) (Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return Spec{}, err
	}
	defer f.Close()
	s, err := DecodeJSON(f)
	if err != nil {
		return Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
