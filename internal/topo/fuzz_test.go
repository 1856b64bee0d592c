package topo_test

import (
	"testing"

	"repro/internal/topo"
	_ "repro/internal/topo/circulant"
	_ "repro/internal/topo/torus"
)

// FuzzTopoParse feeds topology strings, as they arrive in /solve and
// /sweep requests, to topo.Parse: it must never panic, never build a
// platform over topo.MaxCores cores, and every topology it builds must
// parse back from its Spec() to the same topology. The seed corpus
// (testdata/fuzz/FuzzTopoParse) holds the cap's edges on every family.
func FuzzTopoParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		tp, err := topo.Parse(spec)
		if err != nil {
			return
		}
		if n := tp.NumCores(); n > topo.MaxCores {
			t.Fatalf("Parse(%q) built %d cores, cap %d", spec, n, topo.MaxCores)
		}
		again, err := topo.Parse(tp.Spec())
		if err != nil {
			t.Fatalf("Parse(%q).Spec() = %q does not parse: %v", spec, tp.Spec(), err)
		}
		if again.Spec() != tp.Spec() || again.NumCores() != tp.NumCores() || again.LinkIDSpace() != tp.LinkIDSpace() {
			t.Fatalf("Parse(%q) = %s (%d cores, %d link ids), its Spec parses to %s (%d, %d)", spec,
				tp.Spec(), tp.NumCores(), tp.LinkIDSpace(), again.Spec(), again.NumCores(), again.LinkIDSpace())
		}
	})
}
