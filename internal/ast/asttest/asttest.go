// Package asttest holds the checks that tests of the front end share on
// the shape of the trees it builds.
package asttest

import (
	"fmt"

	"repro/internal/ast"
)

// ExactLists returns an error naming the first list in body, body itself
// included, whose capacity exceeds its length: a statement list (Body,
// Then, Else), a subscript list or a dim's sizes. The parser and
// normalization carve every list at its exact length from shared chunks,
// so an append by a later pass must copy the list instead of writing into
// its neighbour's storage.
func ExactLists(body []ast.Stmt) error {
	err := exact("statement list", len(body), cap(body), nil)
	ast.Inspect(body, func(n ast.Node) bool {
		if err != nil {
			return false
		}
		switch x := n.(type) {
		case *ast.DoLoop:
			err = exact("loop body", len(x.Body), cap(x.Body), x)
		case *ast.If:
			if err = exact("then branch", len(x.Then), cap(x.Then), x); err == nil {
				err = exact("else branch", len(x.Else), cap(x.Else), x)
			}
		case *ast.ArrayRef:
			err = exact("subscript list", len(x.Subs), cap(x.Subs), x)
		case *ast.Dim:
			err = exact("dim sizes", len(x.Sizes), cap(x.Sizes), x)
		}
		return err == nil
	})
	return err
}

func exact(what string, n, c int, at ast.Node) error {
	if c == n {
		return nil
	}
	if at == nil {
		return fmt.Errorf("top-level %s has length %d, capacity %d", what, n, c)
	}
	return fmt.Errorf("%s of the %T at %s has length %d, capacity %d", what, at, at.Pos(), n, c)
}
