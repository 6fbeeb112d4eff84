package fault

import "context"

// SimulateReference runs the test-only reference engine (see
// oracle_test.go) for the external equivalence harness.
func SimulateReference(c *Campaign, stream []TimedPattern, opt SimOptions) (*Report, error) {
	return c.simulateReference(context.Background(), stream, opt)
}
