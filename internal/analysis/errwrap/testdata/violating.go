// Violating fixture for the errwrap check: storage/faultfs errors
// reformatted without %w, stringified into new errors, and taint carried
// through local helpers before being broken.
package fixture

import (
	"errors"
	"fmt"

	"tdbms/internal/faultfs"
	"tdbms/internal/storage"
)

// reformat breaks the chain with %v straight off a root source.
func reformat(m *storage.Mem) error {
	if err := m.Shrink(0); err != nil {
		return fmt.Errorf("fixture: truncate failed: %v", err)
	}
	return nil
}

// stringified loses the chain through .Error().
func stringified(m *storage.Mem) error {
	if err := m.Shrink(0); err != nil {
		return errors.New("fixture: " + err.Error())
	}
	return nil
}

// viaHelper returns a storage error through a local helper; the helper's
// fact carries the taint to the breaking Errorf here.
func viaHelper(m *storage.Mem) error {
	if err := helper(m); err != nil {
		return fmt.Errorf("fixture: helper: %v", err)
	}
	return nil
}

// helper wraps properly — the taint survives the %w.
func helper(m *storage.Mem) error {
	if err := m.Shrink(0); err != nil {
		return fmt.Errorf("fixture helper: %w", err)
	}
	return nil
}

// sentinel reformats the injected-fault sentinel itself.
func sentinel() error {
	return fmt.Errorf("fixture: gave up: %v", faultfs.ErrInjected)
}

// stringifiedVerb hides the .Error() inside a %s operand.
func stringifiedVerb(m *storage.Mem) error {
	if err := m.Shrink(0); err != nil {
		return fmt.Errorf("fixture: %s", err.Error())
	}
	return nil
}
