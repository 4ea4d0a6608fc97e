package sema

import (
	"testing"

	"repro/internal/ast"
)

// AgreeWithOracle exposes the oracle comparison to external tests.
func AgreeWithOracle(prog *ast.Program) error { return agreeWithOracle(prog) }

// CheckSource exposes the oracle comparison of one source text to
// external tests; it reports whether src was compared.
func CheckSource(t *testing.T, name, src string) bool { return checkSource(t, name, src) }

// NormalizeSources exposes FuzzNormalize's seed programs to external
// tests.
func NormalizeSources(tb testing.TB) []string { return normalizeSources(tb) }
