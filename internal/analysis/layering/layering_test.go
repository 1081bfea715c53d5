package layering_test

import (
	"testing"

	"tdbms/internal/analysis/analysistest"
	"tdbms/internal/analysis/layering"
)

func TestViolating(t *testing.T) {
	analysistest.Run(t, layering.Analyzer, "testdata/violating.go")
}

func TestClean(t *testing.T) {
	analysistest.Run(t, layering.Analyzer, "testdata/clean.go")
}

func TestCatalogStatsViolating(t *testing.T) {
	analysistest.Run(t, layering.Analyzer, "testdata/catalogstats_violating.go")
}

func TestCatalogStatsClean(t *testing.T) {
	analysistest.Run(t, layering.Analyzer, "testdata/catalogstats_clean.go")
}

func TestPlanImportViolating(t *testing.T) {
	analysistest.Run(t, layering.Analyzer, "testdata/planimport_violating.go")
}

func TestPlanImportClean(t *testing.T) {
	analysistest.Run(t, layering.Analyzer, "testdata/planimport_clean.go")
}

func TestLogViolating(t *testing.T) {
	analysistest.Run(t, layering.Analyzer, "testdata/log_violating.go")
}

func TestLogClean(t *testing.T) {
	analysistest.Run(t, layering.Analyzer, "testdata/log_clean.go")
}

func TestFaultfsImportViolating(t *testing.T) {
	analysistest.Run(t, layering.Analyzer, "testdata/faultfs_violating.go")
}

func TestFaultfsImportClean(t *testing.T) {
	analysistest.Run(t, layering.Analyzer, "testdata/faultfs_clean.go")
}
