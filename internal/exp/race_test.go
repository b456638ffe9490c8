//go:build race

package exp

// raceEnabled reports that the race detector instruments this test
// binary; its shadow memory multiplies resident memory, so memory
// budgets do not apply.
const raceEnabled = true
