package logic

import (
	"math/rand"
	"testing"
)

// TestPackLanesMatchesPerValue packs 64-position windows of random
// three-valued vectors and checks every lane bit against the value it
// stands for: widths around the 8-value loads and the 64-position windows,
// 1, 63 and 64 vectors, and zero lanes past the vectors and past their end.
// Unpacking the words must give the window back.
func TestPackLanesMatchesPerValue(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, width := range []int{1, 7, 8, 9, 63, 64, 65, 4104} {
		for _, n := range []int{1, 63, 64} {
			vecs := make([]Vector, n)
			for k := range vecs {
				vecs[k] = make(Vector, width)
				for i := range vecs[k] {
					vecs[k][i] = V(r.Intn(3))
				}
			}
			back := make([]Vector, n)
			for k := range back {
				back[k] = make(Vector, width)
			}
			for lo := 0; lo < width; lo += 64 {
				var one, x [64]uint64
				for i := range one {
					one[i], x[i] = r.Uint64(), r.Uint64() // PackLanes overwrites
				}
				PackLanes(vecs, lo, &one, &x)
				for i := 0; i < 64; i++ {
					for k := 0; k < 64; k++ {
						var want V
						if k < n && lo+i < width {
							want = vecs[k][lo+i]
						}
						gotOne, gotX := one[i]>>uint(k)&1 == 1, x[i]>>uint(k)&1 == 1
						if gotOne != (want == One) || gotX != (want == X) {
							t.Fatalf("width %d, %d vectors, position %d, lane %d: one=%t x=%t for %v",
								width, n, lo+i, k, gotOne, gotX, want)
						}
					}
				}
				UnpackLanes(&one, &x, back, lo)
			}
			for k := range vecs {
				if !back[k].Equal(vecs[k]) {
					t.Fatalf("width %d, %d vectors: vector %d unpacked as %v, packed %v", width, n, k, back[k], vecs[k])
				}
			}
		}
	}
}
