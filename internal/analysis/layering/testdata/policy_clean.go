// Clean fixture for the layering check's Policy rule: harness code that
// reads and passes policies around without constructing one. Consuming a
// Policy is fine everywhere; only literals are construction.
package bench

import "tdbms/internal/buffer"

// defaulted obtains the measurement policy through the sanctioned
// constructor rather than a literal.
func defaulted() buffer.Policy {
	return buffer.DefaultPolicy()
}

// frames inspects a policy it was handed.
func frames(pol buffer.Policy) int {
	pol = pol.Normalize()
	return pol.Frames
}
