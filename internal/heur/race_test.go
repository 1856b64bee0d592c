//go:build race

package heur

// The race detector slows the single-goroutine PR oracle about sixfold;
// a few seeds per cell keep the differential inside a CI budget.
func init() { refPRSeeds = 5 }
