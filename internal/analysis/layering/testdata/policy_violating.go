// Violating fixture for the layering check's Policy rule: harness code
// constructing a multi-frame buffer.Policy directly, bypassing the
// sanctioned configuration surfaces — exactly the drift that would quietly
// change every figure's page counters.
package bench

import "tdbms/internal/buffer"

// pooled smuggles a multi-frame policy into a measurement path.
func pooled() buffer.Policy {
	pol := buffer.Policy{Frames: 64, Readahead: 8}
	return pol
}

// pooledPtr does the same through a pointer literal.
func pooledPtr() *buffer.Policy {
	return &buffer.Policy{Frames: 2}
}
