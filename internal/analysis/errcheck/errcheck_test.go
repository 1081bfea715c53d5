package errcheck_test

import (
	"testing"

	"tdbms/internal/analysis/analysistest"
	"tdbms/internal/analysis/errcheck"
)

func TestViolating(t *testing.T) {
	analysistest.Run(t, errcheck.Analyzer, "testdata/violating.go")
}

func TestClean(t *testing.T) {
	analysistest.Run(t, errcheck.Analyzer, "testdata/clean.go")
}
