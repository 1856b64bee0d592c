//go:build race

package heur

// The race detector slows the single-goroutine PR and XYI oracles about
// sixfold; a few seeds per cell keep the differentials inside a CI budget.
func init() {
	refPRSeeds = 5
	refXYISeeds = 5
}
