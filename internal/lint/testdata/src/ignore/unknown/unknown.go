// Package unknown is //lint:ignore testdata: one directive names an
// analyzer the suite does not have, one names a known analyzer that a
// partial run does not execute.
package unknown

func f() int {
	//lint:ignore metricnmae a misspelled name can never suppress anything
	a := 1
	//lint:ignore vclock judged only by a run that executes vclock
	b := 2
	return a + b
}
