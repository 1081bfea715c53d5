// Clean fixture for the layering check's faultfs rule: the differential
// harness (package difftest) is the one production package allowed to
// import the fault-injection wrapper.
package difftest

import (
	"tdbms/internal/faultfs"
)

// Absorbed classifies a retryable harness error.
func Absorbed(err error) bool {
	return faultfs.IsInjected(err)
}
