// Violating fixture for the errwrap check: storage/faultfs errors
// reformatted without %w, stringified into new errors, and errors of any
// origin formatted with another verb.
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

// viaHelper breaks the chain of a helper's error: the rule holds for an
// error wherever it came from.
func viaHelper(m *storage.Mem) error {
	if err := helper(m); err != nil {
		return fmt.Errorf("fixture: helper: %v", err)
	}
	return nil
}

// helper wraps properly — the chain survives the %w.
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

// unrelated errors are held to the same rule: any error may carry a
// storage/faultfs error further down its chain.
func unrelated(name string) error {
	err := errors.New("parse failure")
	return fmt.Errorf("fixture: %s: %v", name, err)
}

// unrelatedText stringifies an error of any origin.
func unrelatedText(err error) error {
	return errors.New("fixture: " + err.Error())
}
