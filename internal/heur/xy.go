package heur

import (
	"repro/internal/route"
	"repro/internal/solve"
)

// XY is the baseline routing policy: every communication goes horizontally
// first, then vertically (Section 1). It ignores loads entirely, which is
// why it fails three times more often than the Manhattan heuristics in the
// Section 6 study.
type XY struct{}

// Name returns "XY".
func (XY) Name() string { return "XY" }

// Route routes every communication along its XY path.
func (h XY) Route(in solve.Instance, o solve.Options) (route.Routing, error) {
	in, ws, err := prepare(h.Name(), in, o)
	if err != nil {
		return route.Routing{}, err
	}
	ps := ws.Paths()
	for _, c := range in.Comms {
		ps.Set(c.ID, route.AppendXY(ps.Acquire(c.ID, c.Length()), c.Src, c.Dst))
	}
	return singlePathRouting(in, ws), nil
}
