package gf2

import (
	"math/rand"
	"testing"
)

func benchMat(rows, cols int, seed int64) Mat {
	r := rand.New(rand.NewSource(seed))
	m := NewMat(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if r.Intn(2) == 1 {
				m.Set(i, j)
			}
		}
	}
	return m
}

func BenchmarkEliminate32x25(b *testing.B) {
	m := benchMat(32, 25, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Eliminate(m)
	}
}

func BenchmarkEliminate256x256(b *testing.B) {
	m := benchMat(256, 256, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Eliminate(m)
	}
}

func BenchmarkNullCombinations(b *testing.B) {
	m := benchMat(64, 40, 3)
	for i := 0; i < b.N; i++ {
		NullCombinations(m)
	}
}

func BenchmarkPopCountAnd(b *testing.B) {
	r := rand.New(rand.NewSource(6))
	x := randVec(r, 3000)
	y := randVec(r, 3000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.PopCountAnd(y)
	}
}

func BenchmarkVecXor(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	x := randVec(r, 3000)
	y := randVec(r, 3000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Xor(y)
	}
}
