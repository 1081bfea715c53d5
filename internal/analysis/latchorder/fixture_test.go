package latchorder_test

import (
	"testing"

	"tdbms/internal/analysis/analysistest"
	"tdbms/internal/analysis/latchorder"
)

func TestViolating(t *testing.T) {
	analysistest.Run(t, latchorder.Analyzer, "testdata/violating.go")
}

func TestClean(t *testing.T) {
	analysistest.Run(t, latchorder.Analyzer, "testdata/clean.go")
}

func TestLatchpointViolating(t *testing.T) {
	analysistest.Run(t, latchorder.Analyzer, "testdata/latchpoint_violating.go")
}

func TestLatchpointClean(t *testing.T) {
	analysistest.Run(t, latchorder.Analyzer, "testdata/latchpoint_clean.go")
}

func TestPairingViolating(t *testing.T) {
	analysistest.Run(t, latchorder.Analyzer, "testdata/pairing/violating.go")
}

func TestPairingClean(t *testing.T) {
	analysistest.Run(t, latchorder.Analyzer, "testdata/pairing/clean.go")
}
