package copylocks_test

import (
	"testing"

	"tdbms/internal/analysis/analysistest"
	"tdbms/internal/analysis/copylocks"
)

func TestViolating(t *testing.T) {
	analysistest.Run(t, copylocks.Analyzer, "testdata/violating.go")
}

func TestClean(t *testing.T) {
	analysistest.Run(t, copylocks.Analyzer, "testdata/clean.go")
}

func TestPageCopyViolating(t *testing.T) {
	analysistest.Run(t, copylocks.PageCopy, "testdata/pagecopy_violating.go")
}

func TestPageCopyClean(t *testing.T) {
	analysistest.Run(t, copylocks.PageCopy, "testdata/pagecopy_clean.go")
}
