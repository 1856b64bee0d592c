//go:build race

package scenario

// Race instrumentation keeps some allocation-free idioms from compiling
// allocation-free (PR's append of a make allocates under -race), so
// allocation bounds are checked only in normal builds.
func init() { raceBuild = true }
