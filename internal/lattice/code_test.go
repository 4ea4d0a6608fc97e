package lattice

import "testing"

// The tests below hold the codes to the chain. Their names are those of
// the tests of the word-packed lanes the solver once kept its values in,
// which held the same codes.

// codeSamples spans the chain: both extremes, small distances, the
// largest finite values each stored width (8, 16 and 64 bits) holds and
// the first past them, and a distance beyond 32 bits.
func codeSamples() []Dist {
	return []Dist{None(), D(0), D(1), D(2), D(3), D(7), D(253), D(254),
		D(65533), D(65534), D(1 << 40), All()}
}

// TestPackingEncodeOrderIsomorphism: codes round-trip and order values as
// the chain does.
func TestPackingEncodeOrderIsomorphism(t *testing.T) {
	samples := codeSamples()
	for _, x := range samples {
		if got := FromCode(Code(x)); !got.Eq(x) {
			t.Errorf("FromCode(Code(%s)) = %s", x, got)
		}
		for _, y := range samples {
			if (Code(x) < Code(y)) != (x.Cmp(y) < 0) {
				t.Errorf("order broken: %s vs %s -> %d vs %d", x, y, Code(x), Code(y))
			}
		}
	}
	if Code(None()) != 0 || Code(All()) != CodeAll {
		t.Errorf("Code(None) = %d, Code(All) = %#x; want 0 and all ones", Code(None()), Code(All()))
	}
}

// TestPackingKernelsMatchScalar: integer min and max on codes are the
// lattice's Min and Max, and the clamp min(max(v, lo), hi) on codes is the
// clamp on values, over every triple of samples.
func TestPackingKernelsMatchScalar(t *testing.T) {
	samples := codeSamples()
	for _, x := range samples {
		for _, y := range samples {
			if got, want := FromCode(min(Code(x), Code(y))), Min(x, y); !got.Eq(want) {
				t.Errorf("min(%s,%s) on codes = %s, want %s", x, y, got, want)
			}
			if got, want := FromCode(max(Code(x), Code(y))), Max(x, y); !got.Eq(want) {
				t.Errorf("max(%s,%s) on codes = %s, want %s", x, y, got, want)
			}
			lo, hi := Min(x, y), Max(x, y)
			for _, v := range samples {
				want := Min(Max(v, lo), hi)
				if got := FromCode(min(max(Code(v), Code(lo)), Code(hi))); !got.Eq(want) {
					t.Errorf("min(max(%s,%s),%s) on codes = %s, want %s", v, lo, hi, got, want)
				}
			}
		}
	}
}

// TestPackingIncClampMatchesScalar: IncCode is Inc followed by the
// constant bound's Clamp, and Inc alone when the bound is unknown.
func TestPackingIncClampMatchesScalar(t *testing.T) {
	for _, x := range codeSamples() {
		for _, ub := range []int64{0, 1, 2, 3, 6, 255, 256, 65535, 1 << 40} {
			want := x.Inc()
			if ub > 0 {
				want = want.Clamp(ub)
			}
			if got := FromCode(IncCode(Code(x), uint64(ub))); !got.Eq(want) {
				t.Errorf("IncCode(%s, ub=%d) = %s, want %s", x, ub, got, want)
			}
		}
	}
}
