package lattice

import "testing"

// laneSamples returns a set of lattice values spanning the encodable range
// for the lane width, including both chain extremes and the largest legal
// finite distance.
func laneSamples(lane uint) []Dist {
	maxFin := MaxFiniteForLane(lane)
	return []Dist{
		None(), D(0), D(1), D(2), D(3), D(7),
		D(maxFin - 1), D(maxFin), All(),
	}
}

func TestPackingEncodeOrderIsomorphism(t *testing.T) {
	for _, lane := range []uint{Lane8, Lane16, Lane64} {
		p := NewPacking(1, lane)
		samples := laneSamples(lane)
		for _, x := range samples {
			if got := p.Decode(p.Encode(x)); !got.Eq(x) {
				t.Fatalf("lane %d: decode(encode(%s)) = %s", lane, x, got)
			}
			for _, y := range samples {
				ex, ey := p.Encode(x), p.Encode(y)
				if (x.Cmp(y) < 0) != (ex < ey) {
					t.Fatalf("lane %d: order broken: %s vs %s -> %d vs %d", lane, x, y, ex, ey)
				}
			}
		}
	}
}

// TestPackingKernelsMatchScalar cross-checks every SWAR kernel against the
// scalar Dist operations over all sample pairs placed in every lane
// position, so lane-boundary bleed (carries, borrows) cannot hide.
func TestPackingKernelsMatchScalar(t *testing.T) {
	for _, lane := range []uint{Lane8, Lane16, Lane64} {
		perWord := 64 / int(lane)
		// A row wider than one word, with a tail when lanes share a word:
		// m = perWord + 3.
		m := perWord + 3
		p := NewPacking(m, lane)
		if want := (m + perWord - 1) / perWord; p.Words != want {
			t.Fatalf("lane %d: words = %d, want %d", lane, p.Words, want)
		}
		samples := laneSamples(lane)
		xs := make(Tuple, m)
		ys := make(Tuple, m)
		for si, x := range samples {
			for sj, y := range samples {
				for i := 0; i < m; i++ {
					xs[i] = samples[(si+i)%len(samples)]
					ys[i] = samples[(sj+i*3)%len(samples)]
				}
				xs[0], ys[0] = x, y // ensure the exact pair appears
				xr := make([]uint64, p.Words)
				yr := make([]uint64, p.Words)
				p.EncodeRow(xr, xs)
				p.EncodeRow(yr, ys)

				// Round trip.
				got := make(Tuple, m)
				p.DecodeRow(got, xr)
				if !got.Eq(xs) {
					t.Fatalf("lane %d: row round trip: got %s want %s", lane, got, xs)
				}

				// MinInto / MaxInto.
				minr := append([]uint64(nil), xr...)
				p.MinInto(minr, yr)
				maxr := append([]uint64(nil), xr...)
				p.MaxInto(maxr, yr)
				for i := 0; i < m; i++ {
					if got, want := p.Decode(p.Cell(minr, i)), Min(xs[i], ys[i]); !got.Eq(want) {
						t.Fatalf("lane %d: min[%d](%s,%s) = %s, want %s", lane, i, xs[i], ys[i], got, want)
					}
					if got, want := p.Decode(p.Cell(maxr, i)), Max(xs[i], ys[i]); !got.Eq(want) {
						t.Fatalf("lane %d: max[%d](%s,%s) = %s, want %s", lane, i, xs[i], ys[i], got, want)
					}
				}

				// ApplyBounds with lo = min(x,y), hi = max(x,y) per lane.
				dst := make([]uint64, p.Words)
				in := make([]uint64, p.Words)
				ins := make(Tuple, m)
				for i := 0; i < m; i++ {
					ins[i] = samples[(si+sj+i)%len(samples)]
				}
				p.EncodeRow(in, ins)
				p.ApplyBounds(dst, in, minr, maxr)
				for i := 0; i < m; i++ {
					lo, hi := Min(xs[i], ys[i]), Max(xs[i], ys[i])
					want := Min(Max(ins[i], lo), hi)
					if got := p.Decode(p.Cell(dst, i)); !got.Eq(want) {
						t.Fatalf("lane %d: bounds[%d] min(max(%s,%s),%s) = %s, want %s",
							lane, i, ins[i], lo, hi, got, want)
					}
				}

				// Tail invariant: lanes past m stay zero everywhere.
				rem := m % perWord
				if rem == 0 {
					continue // every lane of the last word is in use
				}
				for name, row := range map[string][]uint64{"min": minr, "max": maxr, "bounds": dst} {
					if hi := row[p.Words-1] >> uint(rem*int(lane)); hi != 0 {
						t.Fatalf("lane %d: %s tail lanes nonzero: %#x", lane, name, hi)
					}
				}
			}
		}
	}
}

func TestPackingIncClampMatchesScalar(t *testing.T) {
	for _, lane := range []uint{Lane8, Lane16, Lane64} {
		perWord := 64 / int(lane)
		m := perWord + 2
		p := NewPacking(m, lane)
		// Keep increments inside the encodable range: use finite samples with
		// headroom of 1 for the +1.
		maxFin := MaxFiniteForLane(lane)
		samples := []Dist{None(), D(0), D(1), D(2), D(5), D(maxFin - 1), All()}
		ubs := []int64{0, 1, 2, 3, 6, maxFin} // 0 = no clamp
		row := make([]uint64, p.Words)
		vals := make(Tuple, m)
		for shift := range samples {
			for _, ub := range ubs {
				for i := 0; i < m; i++ {
					vals[i] = samples[(shift+i)%len(samples)]
				}
				p.EncodeRow(row, vals)
				clamp := ub > 0 && uint64(ub) < p.All
				p.IncClamp(row, uint64(ub), clamp)
				for i := 0; i < m; i++ {
					want := vals[i].Inc()
					if ub > 0 {
						want = want.Clamp(ub)
					}
					if got := p.Decode(p.Cell(row, i)); !got.Eq(want) {
						t.Fatalf("lane %d: incclamp[%d](%s, ub=%d) = %s, want %s",
							lane, i, vals[i], ub, got, want)
					}
				}
				if rem := m % perWord; rem != 0 {
					if tail := row[p.Words-1] >> uint(rem*int(lane)); tail != 0 {
						t.Fatalf("lane %d: incclamp tail nonzero: %#x", lane, tail)
					}
				}
			}
		}
	}
}

func TestPackingFillAndBroadcast(t *testing.T) {
	for _, lane := range []uint{Lane8, Lane16, Lane64} {
		perWord := 64 / int(lane)
		for _, m := range []int{1, perWord - 1, perWord, perWord + 1, 3*perWord - 2} {
			p := NewPacking(m, lane)
			row := make([]uint64, p.Words)
			for _, v := range []Dist{None(), D(0), D(4), All()} {
				p.Fill(row, p.Encode(v))
				for i := 0; i < m; i++ {
					if got := p.Decode(p.Cell(row, i)); !got.Eq(v) {
						t.Fatalf("lane %d m %d: fill lane %d = %s, want %s", lane, m, i, got, v)
					}
				}
				if rem := m % perWord; rem != 0 {
					if tail := row[p.Words-1] >> uint(rem*int(lane)); tail != 0 {
						t.Fatalf("lane %d m %d: fill tail nonzero: %#x", lane, m, tail)
					}
				}
			}
		}
	}
}
