package latchorder_test

import (
	"testing"

	"repro/internal/analysis/anztest"
	"repro/internal/analysis/latchorder"
)

// TestFixture runs the pass over one fixture per check.
func TestFixture(t *testing.T) {
	for _, tc := range []struct{ name, dir string }{
		{"order", "../testdata/latchorder"},
		{"cycle", "../testdata/latchcycle"},
		{"field", "../testdata/lockfield"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			anztest.Run(t, ".", tc.dir, latchorder.Analyzer)
		})
	}
}
