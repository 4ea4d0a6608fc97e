package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// The input generator lives with the benchmark rather than in the program's
// own synthetic-input package, so that no change to the program under test
// can change a workload. It emits source text only: the program sees the
// generated inputs and never the seed.

// shape fixes everything about a generated program except the draws the
// seed makes (which arrays, offsets, scalars and guards fill the bodies, and
// the order of the loops). Two seeds with one shape give programs with the
// same counts of loops, statements, nests and constant-trip loops.
type shape struct {
	ConstLoops int // flat loops with the constant trip count ConstTrip
	ConstTrip  int
	SymLoops   int // flat loops bounded by the symbolic N
	Nests      int // tight two-level nests bounded by the symbolic M and N
	Stmts      int // assignments per innermost loop body
	// Arrays is how many arrays each loop draws from (bounded classes); 0
	// gives every statement its own stored array (classes grow with Stmts).
	Arrays  int
	MaxDist int // subscript offsets lie in [0, MaxDist]
	CondPct int // percent of statements wrapped in a guard
}

// loops is the number of DO loops the shape produces (a nest counts two).
func (s shape) loops() int { return s.ConstLoops + s.SymLoops + 2*s.Nests }

// stmts is the number of assignments the shape produces.
func (s shape) stmts() int { return s.Stmts * (s.ConstLoops + s.SymLoops + s.Nests) }

// generate returns the source text of one program of shape s.
func generate(s shape, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	kinds := make([]byte, 0, s.ConstLoops+s.SymLoops+s.Nests)
	for _, k := range []struct {
		kind byte
		n    int
	}{{'c', s.ConstLoops}, {'s', s.SymLoops}, {'n', s.Nests}} {
		for i := 0; i < k.n; i++ {
			kinds = append(kinds, k.kind)
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	var b strings.Builder
	// One suppression directive per program keeps the vet path's
	// suppression stage doing real work.
	b.WriteString("//lint:ignore race reviewed by hand\n")
	for l, kind := range kinds {
		g := loopGen{rng: rng, s: s, prefix: fmt.Sprintf("A%d_", l)}
		switch kind {
		case 'c':
			fmt.Fprintf(&b, "do i = 1, %d\n", s.ConstTrip)
			g.body(&b, "  ", false)
			b.WriteString("enddo\n")
		case 's':
			b.WriteString("do i = 1, N\n")
			g.body(&b, "  ", false)
			b.WriteString("enddo\n")
		default:
			b.WriteString("do j = 1, M\n  do i = 1, N\n")
			g.body(&b, "    ", true)
			b.WriteString("  enddo\nenddo\n")
		}
	}
	return b.String()
}

// loopGen draws the statements of one innermost loop body.
type loopGen struct {
	rng    *rand.Rand
	s      shape
	prefix string // array-name prefix, distinct per loop
}

func (g loopGen) body(b *strings.Builder, indent string, twoDim bool) {
	for k := 0; k < g.s.Stmts; k++ {
		store := k
		if g.s.Arrays > 0 {
			store = g.rng.Intn(g.s.Arrays)
		}
		stmt := g.ref(store, twoDim, true) + " := "
		for n := 0; n < 1+g.rng.Intn(2); n++ {
			load := g.rng.Intn(store + 1)
			if g.s.Arrays > 0 {
				load = g.rng.Intn(g.s.Arrays)
			}
			stmt += g.ref(load, twoDim, false) + " + "
		}
		stmt += fmt.Sprintf("x%d", g.rng.Intn(4))
		if g.rng.Intn(100) < g.s.CondPct {
			fmt.Fprintf(b, "%sif c%d > 0 then\n%s  %s\n%sendif\n", indent, g.rng.Intn(4), indent, stmt, indent)
		} else {
			fmt.Fprintf(b, "%s%s\n", indent, stmt)
		}
	}
}

// ref renders an array reference: stores reach ahead (i+d), loads behind
// (i-d), so bodies carry dependences at distances up to MaxDist.
func (g loopGen) ref(array int, twoDim, store bool) string {
	sign := "-"
	if store {
		sign = "+"
	}
	sub := offset("i", sign, g.rng.Intn(g.s.MaxDist+1))
	if twoDim {
		sub += ", " + offset("j", sign, g.rng.Intn(2))
	}
	return fmt.Sprintf("%s%d[%s]", g.prefix, array, sub)
}

func offset(iv, sign string, d int) string {
	if d == 0 {
		return iv
	}
	return fmt.Sprintf("%s%s%d", iv, sign, d)
}
