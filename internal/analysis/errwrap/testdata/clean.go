// Clean fixture for the errwrap check: every storage/faultfs error is
// either wrapped with %w, joined, or returned verbatim, and errors with
// no storage origin may be formatted freely.
package fixture

import (
	"errors"
	"fmt"

	"tdbms/internal/storage"
)

// wrap preserves the chain with %w.
func wrap(m *storage.Mem) error {
	if err := m.Shrink(0); err != nil {
		return fmt.Errorf("fixture: truncate: %w", err)
	}
	return nil
}

// verbatim returns the source error untouched.
func verbatim(m *storage.Mem) error {
	return m.Shrink(0)
}

// joined keeps both chains via errors.Join.
func joined(m *storage.Mem) error {
	if err := m.Shrink(0); err != nil {
		return errors.Join(errors.New("fixture: truncate failed"), err)
	}
	return nil
}

// doubleWrap carries two source errors in one message, both with %w.
func doubleWrap(m *storage.Mem) error {
	e1, e2 := m.Shrink(0), m.Close()
	if e1 != nil || e2 != nil {
		return fmt.Errorf("fixture: %w (and %w)", e1, e2)
	}
	return nil
}

// unrelated errors may use any verb: no storage origin, no constraint.
func unrelated(name string) error {
	err := errors.New("parse failure")
	return fmt.Errorf("fixture: %s: %v", name, err)
}

// rewrapped formats an already-%w-wrapped error again, still with %w.
func rewrapped(m *storage.Mem) error {
	if err := wrap(m); err != nil {
		return fmt.Errorf("fixture outer: %w", err)
	}
	return nil
}
