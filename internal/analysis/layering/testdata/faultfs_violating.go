// Violating fixture for the layering check's faultfs rule: a
// production-named package (bench) importing the fault-injection wrapper
// outside a _test.go file.
package bench

import (
	"tdbms/internal/faultfs"
)

// Flaky wires an injected-fault schedule into a measured code path — the
// exact leak the check exists to stop.
func Flaky(err error) bool {
	return faultfs.IsInjected(err)
}
