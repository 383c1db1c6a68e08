package mat

import (
	"fmt"

	"github.com/coded-computing/s2c2/internal/kernel"
)

// The products a coded worker runs — mat-vec over a row range and the
// bilinear Aᵀ·diag(d)·B — validate shapes here and delegate the float64
// loops to internal/kernel, the shared compute substrate. The ...Into
// forms write into caller-owned storage; the others allocate the result.

// MatVec computes y = A·x into a new slice.
func MatVec(a *Dense, x []float64) []float64 {
	y := make([]float64, a.rows)
	MatVecInto(a, x, y)
	return y
}

// MatVecInto computes y = A·x into the provided slice.
// len(x) must equal A's column count and len(y) its row count.
//
//s2c2:noalloc
func MatVecInto(a *Dense, x, y []float64) {
	if len(x) != a.cols {
		panic(fmt.Sprintf("mat: MatVec x length %d want %d", len(x), a.cols))
	}
	if len(y) != a.rows {
		panic(fmt.Sprintf("mat: MatVec y length %d want %d", len(y), a.rows))
	}
	kernel.MatVec(y, a.data, a.rows, a.cols, x)
}

// MatVecRowsInto computes (A·x)[lo:hi] — only the rows in [lo, hi) — into
// y, of length hi-lo. This is the kernel a coded-computing worker runs
// when S2C2 assigns it a sub-range of its partition.
//
//s2c2:noalloc
func MatVecRowsInto(a *Dense, x, y []float64, lo, hi int) {
	if lo < 0 || hi > a.rows || lo > hi {
		panic(fmt.Sprintf("mat: MatVecRowsInto range [%d,%d) out of %d", lo, hi, a.rows))
	}
	if len(x) != a.cols {
		panic(fmt.Sprintf("mat: MatVecRowsInto x length %d want %d", len(x), a.cols))
	}
	if len(y) != hi-lo {
		panic(fmt.Sprintf("mat: MatVecRowsInto y length %d want %d", len(y), hi-lo))
	}
	kernel.MatVecRange(y, a.data, a.cols, x, lo, hi)
}

// Transpose returns Aᵀ as a new matrix.
func Transpose(a *Dense) *Dense {
	t := New(a.cols, a.rows)
	TransposeInto(a, t)
	return t
}

// TransposeInto writes Aᵀ into the provided A.Cols()×A.Rows() matrix.
//
//s2c2:noalloc
func TransposeInto(a, t *Dense) {
	if t.rows != a.cols || t.cols != a.rows {
		panic(fmt.Sprintf("mat: Transpose dst %dx%d want %dx%d", t.rows, t.cols, a.cols, a.rows))
	}
	for i := 0; i < a.rows; i++ {
		row := a.data[i*a.cols : (i+1)*a.cols]
		for j, v := range row {
			t.data[j*a.rows+i] = v
		}
	}
}

// ATDiagA computes Aᵀ·diag(d)·A — the Hessian-style bilinear form used by
// the polynomial-coding workload. A is m-by-n, d has length m, and the
// result is n-by-n.
func ATDiagA(a *Dense, d []float64) *Dense {
	if len(d) != a.rows {
		panic(fmt.Sprintf("mat: ATDiagA d length %d want %d", len(d), a.rows))
	}
	out := New(a.cols, a.cols)
	kernel.ATDiagBRange(out.data, a.data, d, a.data, a.rows, a.cols, a.cols, 0, a.cols)
	return out
}

// ATDiagB computes Aᵀ·diag(d)·B for m-by-p A, m-by-q B, len(d)==m.
// This is the general bilinear kernel evaluated by polynomial-code workers,
// where A and B are *encoded* column-block partitions.
func ATDiagB(a *Dense, d []float64, b *Dense) *Dense {
	if a.rows != b.rows {
		panic(fmt.Sprintf("mat: ATDiagB row mismatch %d vs %d", a.rows, b.rows))
	}
	if len(d) != a.rows {
		panic(fmt.Sprintf("mat: ATDiagB d length %d want %d", len(d), a.rows))
	}
	out := New(a.cols, b.cols)
	kernel.ATDiagBRange(out.data, a.data, d, b.data, a.rows, a.cols, b.cols, 0, a.cols)
	return out
}

// ATDiagBRowsInto computes rows [lo,hi) of Aᵀ·diag(d)·B, the partial
// bilinear kernel an S2C2 worker runs under polynomial coding, row-major
// into a caller slice of length (hi-lo)·B.Cols(). Row p of the output
// depends on column p of A, i.e. entry a[i][p] for all i.
//
//s2c2:noalloc
func ATDiagBRowsInto(a *Dense, d []float64, b *Dense, lo, hi int, dst []float64) {
	if lo < 0 || hi > a.cols || lo > hi {
		panic(fmt.Sprintf("mat: ATDiagBRowsInto range [%d,%d) out of %d", lo, hi, a.cols))
	}
	if a.rows != b.rows || len(d) != a.rows {
		panic("mat: ATDiagBRowsInto shape mismatch")
	}
	if len(dst) != (hi-lo)*b.cols {
		panic(fmt.Sprintf("mat: ATDiagBRowsInto dst length %d want %d", len(dst), (hi-lo)*b.cols))
	}
	kernel.ATDiagBRange(dst, a.data, d, b.data, a.rows, a.cols, b.cols, lo, hi)
}
