package mat

import (
	"fmt"
	"math"

	"github.com/coded-computing/s2c2/internal/kernel"
)

// Vector helpers operate on plain []float64 so callers can interoperate
// with the rest of the standard library without wrapper types.

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	return kernel.Dot(x, y)
}

// ScaleVec multiplies every element of x by a in place.
func ScaleVec(a float64, x []float64) {
	kernel.Scale(a, x)
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// Norm1 returns the 1-norm of x.
func Norm1(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += math.Abs(v)
	}
	return s
}

// NormInf returns the max-norm of x.
func NormInf(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > s {
			s = a
		}
	}
	return s
}

// CloneVec returns a copy of x.
func CloneVec(x []float64) []float64 {
	y := make([]float64, len(x))
	copy(y, x)
	return y
}

// VecApproxEqual reports whether x and y agree elementwise within tol.
func VecApproxEqual(x, y []float64, tol float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if !approxEqual(x[i], y[i], tol) {
			return false
		}
	}
	return true
}
