// Routing digests of every registered policy on a small fixed grid. The
// golden figure tests pin only the six constructive heuristics; these
// digests pin the rest (SA, BEST, the multi-path rules, MAXMP, OPT and
// TABLE) so that an optimization of shared code cannot change any
// policy's routing silently.
package repro_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/solve"
	"repro/internal/topo"
	"repro/internal/workload"
)

// policyDigests are the committed routing digests: FNV-64a over the fmt
// rendering of every routing's Flows, instance after instance, in the
// order policyDigestInstances lists them.
var policyDigests = map[string]string{
	"2MP":   "e869a2a1430fdf89",
	"4MP":   "8a7824a9c6b0fa5d",
	"BEST":  "bd68d5e02a46a991",
	"IG":    "8a47e4005ca3e3e1",
	"MAXMP": "411a5c0ae26c6376",
	"OPT":   "f91da1acc7913221",
	"PR":    "8c829798d0728fb9",
	"SA":    "9334691f4c828415",
	"SG":    "3fc4078f0bcbf44d",
	"TABLE": "d1b50a0516bd6221",
	"TB":    "665aa5b0f68870a9",
	"XY":    "dc4857c2bae1d829",
	"XYI":   "ae9a1635213a5d0d",
}

// policyVariantDigests pin, on the policy's grid, the knobs that reach a
// policy only through Options: SA's seed and move budget, the processing
// order of the order-sensitive greedies and the equal-split count.
var policyVariantDigests = []struct {
	policy, label string
	opts          solve.Options
	digest        string
}{
	{"SA", "seed5_iters60", solve.Options{Seed: 5, SAIters: 60}, "133b2f611de3179d"},
	{"TB", "weight_asc", solve.Options{Order: comm.ByWeightAsc}, "5177aa21a2f64cdd"},
	{"SG", "weight_asc", solve.Options{Order: comm.ByWeightAsc}, "d15ac15bca36ef59"},
	{"IG", "weight_asc", solve.Options{Order: comm.ByWeightAsc}, "1cf50e358bb146a9"},
	{"2MP", "maxpaths3", solve.Options{MaxPaths: 3}, "e87f09eaf945dc7f"},
}

// policyDigestInstances is the fixed grid a policy is digested on:
//   - default: 8x8 Kim–Horowitz, n ∈ {10,30,70} × seeds 1–3;
//   - MAXMP: the same at n = 10 only (Frank–Wolfe is the slow policy);
//   - OPT: the committed 4x4 OPT bench instance;
//   - TABLE: the default sizes and seeds on torus:8x8.
func policyDigestInstances(t *testing.T, name string) []solve.Instance {
	t.Helper()
	switch name {
	case "OPT":
		return []solve.Instance{optBenchInstance()}
	case "TABLE":
		tp, err := topo.Parse("torus:8x8")
		if err != nil {
			t.Fatal(err)
		}
		var ins []solve.Instance
		for _, n := range []int{10, 30, 70} {
			for seed := int64(1); seed <= 3; seed++ {
				set := workload.New(tp.Carrier(), seed).Uniform(n, 100, 1500)
				ins = append(ins, solve.Instance{Topo: tp, Model: power.KimHorowitz(), Comms: set})
			}
		}
		return ins
	}
	ns := []int{10, 30, 70}
	if name == "MAXMP" {
		ns = []int{10}
	}
	m := mesh.MustNew(8, 8)
	var ins []solve.Instance
	for _, n := range ns {
		for seed := int64(1); seed <= 3; seed++ {
			set := workload.New(m, seed).Uniform(n, 100, 1500)
			ins = append(ins, solve.Instance{Mesh: m, Model: power.KimHorowitz(), Comms: set})
		}
	}
	return ins
}

// policyDigest routes every grid instance of the policy under opts on
// one reused workspace (serial OPT) and hashes the routings.
func policyDigest(t *testing.T, name string, opts solve.Options) string {
	t.Helper()
	s, err := solve.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workspace, opts.ExactWorkers = route.NewWorkspace(), 1
	h := fnv.New64a()
	for i, in := range policyDigestInstances(t, name) {
		r, err := s.Route(in, opts)
		if err != nil {
			t.Fatalf("%s instance %d: %v", name, i, err)
		}
		fmt.Fprint(h, r.Flows)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestPolicyRoutingDigests routes the fixed grid with every registered
// policy and compares against the committed digests; a policy without a
// committed digest fails too, so a new policy is pinned when it lands.
// The option variants are compared against theirs.
func TestPolicyRoutingDigests(t *testing.T) {
	for _, v := range policyVariantDigests {
		t.Run(v.policy+"_"+v.label, func(t *testing.T) {
			t.Parallel()
			if got := policyDigest(t, v.policy, v.opts); got != v.digest {
				t.Fatalf("%s under %s routing digest %s, committed %s", v.policy, v.label, got, v.digest)
			}
		})
	}
	for _, name := range solve.Policies() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			got := policyDigest(t, name, solve.Options{})
			want, ok := policyDigests[name]
			if !ok {
				t.Fatalf("no committed digest for %s (got %s)", name, got)
			}
			if got != want {
				t.Fatalf("%s routing digest %s, committed %s", name, got, want)
			}
		})
	}
}
