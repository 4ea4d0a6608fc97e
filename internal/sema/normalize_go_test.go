package sema_test

import (
	"path/filepath"
	"testing"

	"repro/internal/goimport"
	"repro/internal/sema"
)

// TestNormalizeMatchesOracleOnGoUnits compares Normalize with the oracle
// on every loop the Go front end lowers from examples/go and from this
// module's own source.
func TestNormalizeMatchesOracleOnGoUnits(t *testing.T) {
	for _, pattern := range []string{
		filepath.Join("..", "..", "examples", "go"),
		filepath.Join("..", "..") + "/...",
	} {
		res, err := goimport.ImportTree(pattern, false)
		if err != nil {
			t.Fatal(err)
		}
		units := res.Units()
		if len(units) == 0 {
			t.Fatalf("%s: no lowered units", pattern)
		}
		for _, u := range units {
			if err := sema.AgreeWithOracle(u.Program); err != nil {
				t.Errorf("%s %s: %v", u.File, u.Func, err)
			}
		}
	}
}
