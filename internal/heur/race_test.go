//go:build race

package heur

// The race detector slows the single-goroutine PR, XYI and IG oracles
// about sixfold; a few seeds per cell keep the differentials inside a CI
// budget.
func init() {
	refPRSeeds = 5
	refXYISeeds = 5
	refIGSeeds = 5
}
