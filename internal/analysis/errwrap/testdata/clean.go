// Clean fixture for the errwrap check: every error is either wrapped
// with %w, joined, or returned verbatim; other operands may use any verb.
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

// message formats a plain value with %v and an error with %w.
func message(name string, m *storage.Mem) error {
	return fmt.Errorf("fixture: %v: %w", name, m.Shrink(0))
}

// rewrapped formats an already-%w-wrapped error again, still with %w.
func rewrapped(m *storage.Mem) error {
	if err := wrap(m); err != nil {
		return fmt.Errorf("fixture outer: %w", err)
	}
	return nil
}
