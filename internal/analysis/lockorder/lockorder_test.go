package lockorder_test

import (
	"testing"

	"pipes/internal/analysis/analyzertest"
	"pipes/internal/analysis/lockorder"
)

func TestLockorder(t *testing.T) {
	analyzertest.Run(t, "testdata", lockorder.Analyzer, "flight", "store", "service")
}
