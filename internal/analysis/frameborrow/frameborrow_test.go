package frameborrow_test

import (
	"testing"

	"pipes/internal/analysis/analyzertest"
	"pipes/internal/analysis/frameborrow"
)

func TestFrameborrow(t *testing.T) {
	analyzertest.Run(t, "testdata", frameborrow.Analyzer, "ops", "pubsub", "service", "other", "allowdir")
}
