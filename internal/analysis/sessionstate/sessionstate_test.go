package sessionstate_test

import (
	"testing"

	"tdbms/internal/analysis/analysistest"
	"tdbms/internal/analysis/sessionstate"
)

func TestDatabaseViolating(t *testing.T) {
	analysistest.Run(t, sessionstate.Analyzer, "testdata/database_violating.go")
}

func TestDatabaseClean(t *testing.T) {
	analysistest.Run(t, sessionstate.Analyzer, "testdata/database_clean.go")
}
