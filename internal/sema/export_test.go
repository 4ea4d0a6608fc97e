package sema

import "repro/internal/ast"

// AgreeWithOracle exposes the oracle comparison to external tests.
func AgreeWithOracle(prog *ast.Program) error { return agreeWithOracle(prog) }
