package logic

import "xhybrid/internal/gf2"

// Lane words are the 64-way parallel form of up to 64 vectors: for each
// position i a pair of words one[i] and x[i] whose bit k is vector k's
// value there (One sets the one bit, X the x bit, Zero neither). The
// parallel simulator evaluates in this form, and packed response sets are
// stored in it.

const (
	// lsb selects the low bit of each of a word's eight bytes.
	lsb = 0x0101010101010101
	// gather moves the low bit of byte j to bit 56+j when multiplied in:
	// byte j's bit lands on 8j+7t+7 for t = 0..7, which is 56+j exactly
	// when j+t = 7, and no two (j, t) pairs share a bit, so nothing carries.
	gather = 0x0102040810204080
)

// PackLanes packs positions [lo, lo+64) of up to 64 vectors into lane
// words: bit k of one[i] is set when vecs[k][lo+i] is One, and bit k of
// x[i] when it is X. Lanes at or past len(vecs), and positions at or past a
// vector's end, are zero.
//
// Each vector is read eight values per load: the uint64 assembled from
// eight bytes compiles to one load, and with b0 and b1 the values' low and
// high bits (byte by byte), One is b0 &^ b1 and X is b1 &^ b0. gather packs
// each result's eight bits into one byte. The rows that builds are one
// vector each; one Transpose64 per plane turns them into lane words.
func PackLanes(vecs []Vector, lo int, one, x *[64]uint64) {
	*one, *x = [64]uint64{}, [64]uint64{}
	for k, vec := range vecs {
		if lo >= len(vec) {
			continue
		}
		v := vec[lo:min(lo+64, len(vec))]
		var o, xs uint64
		i := 0
		for ; i+8 <= len(v); i += 8 {
			b := v[i : i+8 : i+8]
			q := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
				uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
			b0, b1 := q&lsb, q>>1&lsb
			o |= ((b0 &^ b1) * gather >> 56) << (uint(i) & 63)
			xs |= ((b1 &^ b0) * gather >> 56) << (uint(i) & 63)
		}
		for ; i < len(v); i++ {
			e := uint64(v[i])
			o |= (e & 1 &^ (e >> 1)) << (uint(i) & 63)
			xs |= (e >> 1 &^ e & 1) << (uint(i) & 63)
		}
		one[k], x[k] = o, xs
	}
	gf2.Transpose64(one)
	gf2.Transpose64(x)
}

// UnpackLanes is PackLanes' inverse: it sets positions [lo, lo+64) of each
// of vecs (at most 64, each ending at or after lo) from the lane words,
// vecs[k][lo+i] from bit k of one[i] and x[i]. Positions at or past a
// vector's end are skipped. It transposes one and x in place.
func UnpackLanes(one, x *[64]uint64, vecs []Vector, lo int) {
	gf2.Transpose64(one)
	gf2.Transpose64(x)
	for k, vec := range vecs {
		v := vec[lo:min(lo+64, len(vec))]
		o, xs := one[k], x[k]
		for i := range v {
			sh := uint(i) & 63
			v[i] = V(o>>sh&1 | (xs>>sh&1)<<1)
		}
	}
}
