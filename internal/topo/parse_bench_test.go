package topo_test

import (
	"testing"

	"repro/internal/topo"
)

// BenchmarkParse measures building a platform from its spec string, the
// step every /solve and /sweep request with a topology pays on admission
// (and spec hashing repeats). The largest platforms under topo.MaxCores
// show what a table compiled at parse time would cost.
func BenchmarkParse(b *testing.B) {
	for _, spec := range []string{"torus:8x8", "torus:32x32", "circulant:1024:1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16"} {
		b.Run(spec, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := topo.Parse(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
