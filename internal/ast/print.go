package ast

import (
	"strconv"
	"strings"

	"repro/internal/token"
)

// sink is the minimal writer the canonical printers target. It is satisfied
// by *strings.Builder (rendering) and by *Hasher (fingerprinting), so the
// fingerprint of a statement is computed over exactly the bytes StmtString
// would produce — without materializing the string.
type sink interface {
	WriteString(s string) (int, error)
	WriteByte(c byte) error
}

// writeInt writes the decimal rendering of v without allocating. The
// digits go out byte by byte: handing the stack buffer itself to the sink
// interface would move it to the heap on every call.
func writeInt(b sink, v int64) {
	var buf [20]byte
	for _, c := range strconv.AppendInt(buf[:0], v, 10) {
		b.WriteByte(c)
	}
}

// writeIndent writes two spaces per depth level.
func writeIndent(b sink, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

// ExprString renders an expression in source syntax.
func ExprString(e Expr) string {
	var b strings.Builder
	writeExpr(&b, e, 0)
	return b.String()
}

// WriteExpr writes the rendering ExprString returns to b, so callers that
// assemble larger lines render in place instead of through a temporary
// string.
func WriteExpr(b *strings.Builder, e Expr) {
	writeExpr(b, e, 0)
}

// Operator precedence levels for printing (higher binds tighter).
func prec(op token.Kind) int {
	switch op {
	case token.OR:
		return 1
	case token.AND:
		return 2
	case token.EQ, token.NEQ, token.LT, token.LEQ, token.GT, token.GEQ:
		return 3
	case token.PLUS, token.MINUS:
		return 4
	case token.STAR, token.SLASH, token.MOD:
		return 5
	}
	return 6
}

func writeExpr(b sink, e Expr, outer int) {
	switch ex := e.(type) {
	case *Ident:
		b.WriteString(ex.Name)
	case *IntLit:
		writeInt(b, ex.Value)
	case *ArrayRef:
		b.WriteString(ex.Name)
		b.WriteByte('[')
		for i, s := range ex.Subs {
			if i > 0 {
				b.WriteString(", ")
			}
			writeExpr(b, s, 0)
		}
		b.WriteByte(']')
	case *Binary:
		p := prec(ex.Op)
		if p < outer {
			b.WriteByte('(')
		}
		writeExpr(b, ex.L, p)
		b.WriteByte(' ')
		b.WriteString(ex.Op.String())
		b.WriteByte(' ')
		writeExpr(b, ex.R, p+1)
		if p < outer {
			b.WriteByte(')')
		}
	case *Unary:
		b.WriteString(ex.Op.String())
		if ex.Op == token.NOT {
			b.WriteByte(' ')
		}
		writeExpr(b, ex.X, 6)
	default:
		b.WriteString("<?expr>")
	}
}

// StmtString renders a single statement (and its nested body) in source
// syntax with the given indentation depth.
func StmtString(s Stmt, depth int) string {
	var b strings.Builder
	writeStmt(&b, s, depth)
	return b.String()
}

// ProgramString renders a whole program in source syntax.
func ProgramString(p *Program) string {
	var b strings.Builder
	for _, s := range p.Body {
		writeStmt(&b, s, 0)
	}
	return b.String()
}

// StmtsString renders a statement list in source syntax.
func StmtsString(list []Stmt) string {
	var b strings.Builder
	for _, s := range list {
		writeStmt(&b, s, 0)
	}
	return b.String()
}

func writeStmt(b sink, s Stmt, depth int) {
	switch st := s.(type) {
	case *DoLoop:
		writeIndent(b, depth)
		b.WriteString("do ")
		b.WriteString(st.Var)
		b.WriteString(" = ")
		writeExpr(b, st.Lo, 0)
		b.WriteString(", ")
		writeExpr(b, st.Hi, 0)
		if st.Step != nil {
			b.WriteString(", ")
			writeExpr(b, st.Step, 0)
		}
		b.WriteByte('\n')
		for _, inner := range st.Body {
			writeStmt(b, inner, depth+1)
		}
		writeIndent(b, depth)
		b.WriteString("enddo\n")
	case *If:
		writeIndent(b, depth)
		b.WriteString("if ")
		writeExpr(b, st.Cond, 0)
		b.WriteString(" then\n")
		for _, inner := range st.Then {
			writeStmt(b, inner, depth+1)
		}
		if st.Else != nil {
			writeIndent(b, depth)
			b.WriteString("else\n")
			for _, inner := range st.Else {
				writeStmt(b, inner, depth+1)
			}
		}
		writeIndent(b, depth)
		b.WriteString("endif\n")
	case *Assign:
		writeIndent(b, depth)
		writeExpr(b, st.LHS, 0)
		b.WriteString(" := ")
		writeExpr(b, st.RHS, 0)
		b.WriteByte('\n')
	case *Dim:
		writeIndent(b, depth)
		b.WriteString("dim ")
		b.WriteString(st.Name)
		b.WriteByte('[')
		for i, sz := range st.Sizes {
			if i > 0 {
				b.WriteString(", ")
			}
			writeExpr(b, sz, 0)
		}
		b.WriteString("]\n")
	default:
		writeIndent(b, depth)
		b.WriteString("<?stmt>\n")
	}
}
