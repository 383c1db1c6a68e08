package coding

import (
	"fmt"

	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/mat"
)

// The per-row decoders the band-wise decoders replaced, kept as test-only
// references: every partition row is indexed on its own, its decode set is
// the first k workers in arrival order that computed it (sorted), and the
// row is solved one lane at a time — LU solve plus one refinement step
// for float64, the inverted k×k decode system for GF(2³¹−1).

// refRowIndex is the per-row coverage index: rows[w][r] holds the values
// worker w computed for row r (nil if none; the last registered copy
// wins), order the workers by first arrival.
type refRowIndex[T any] struct {
	width int
	order []int
	rows  map[int][][]T
}

func (t *refRowIndex[T]) add(blockRows, worker int, ranges []Range, values []T, width int) error {
	if err := validatePartial(worker, ranges, len(values), width, blockRows); err != nil {
		return err
	}
	if t.width == 0 {
		t.width = width
	} else if t.width != width {
		return fmt.Errorf("coding: mixed row widths %d and %d", t.width, width)
	}
	if t.rows == nil {
		t.rows = map[int][][]T{}
	}
	if t.rows[worker] == nil {
		t.rows[worker] = make([][]T, blockRows)
		t.order = append(t.order, worker)
	}
	at := 0
	for _, r := range ranges {
		for row := r.Lo; row < r.Hi; row++ {
			t.rows[worker][row] = values[at : at+width]
			at += width
		}
	}
	return nil
}

// workersForRow returns the row's decode set: the first k covering workers
// in arrival order, ascending.
func (t *refRowIndex[T]) workersForRow(row, k int) ([]int, error) {
	var ws []int
	for _, w := range t.order {
		if t.rows[w][row] != nil && len(ws) < k {
			ws = append(ws, w)
		}
	}
	if len(ws) < k {
		return nil, fmt.Errorf("%w: row %d covered by %d of %d needed workers", ErrInsufficient, row, len(ws), k)
	}
	sortInts(ws)
	return ws, nil
}

// refDecodeMatVec is the per-row float64 MDS decoder.
func refDecodeMatVec(e *EncodedMatrix, partials []*Partial) ([]float64, error) {
	k := e.Code.k
	t := &refRowIndex[float64]{}
	for _, p := range partials {
		if err := t.add(e.BlockRows, p.Worker, p.Ranges, p.Values, p.RowWidth); err != nil {
			return nil, err
		}
	}
	out := make([]float64, e.BlockRows*k*t.width)
	b, z, r, dx := make([]float64, k), make([]float64, k), make([]float64, k), make([]float64, k)
	for row := 0; row < e.BlockRows; row++ {
		workers, err := t.workersForRow(row, k)
		if err != nil {
			return nil, err
		}
		sub := mat.New(k, k)
		for i, w := range workers {
			copy(sub.Row(i), generatorRow(e.Code.gen, e.Code.k, w))
		}
		lu := new(mat.LU)
		if err := lu.Factor(sub); err != nil {
			return nil, err
		}
		for l := 0; l < t.width; l++ {
			for i, w := range workers {
				b[i] = t.rows[w][row][l]
			}
			// LU solve with one iterative-refinement sweep.
			lu.SolveInto(z, b)
			mat.MatVecInto(sub, z, r)
			for i := range r {
				r[i] = b[i] - r[i]
			}
			lu.SolveInto(dx, r)
			for j := 0; j < k; j++ {
				out[(j*e.BlockRows+row)*t.width+l] = z[j] + dx[j]
			}
		}
	}
	return out[:e.OrigRows*t.width], nil
}

// refGFDecodeMatVec is the per-row exact decoder.
func refGFDecodeMatVec(e *GFEncodedMatrix, partials []*GFPartial) ([]gf.Elem, error) {
	k := e.Code.k
	t := &refRowIndex[gf.Elem]{}
	for _, p := range partials {
		if err := t.add(e.BlockRows, p.Worker, p.Ranges, p.Values, p.Width()); err != nil {
			return nil, err
		}
	}
	out := make([]gf.Elem, e.BlockRows*k*t.width)
	b := make([]gf.Elem, k)
	for row := 0; row < e.BlockRows; row++ {
		workers, err := t.workersForRow(row, k)
		if err != nil {
			return nil, err
		}
		sub := gf.NewMatrixFromData(k, k, make([]gf.Elem, k*k))
		for i, w := range workers {
			copy(sub.Row(i), generatorRow(e.Code.gen, e.Code.k, w))
		}
		inv := gf.NewMatrixFromData(k, k, make([]gf.Elem, k*k))
		if !gf.InvertInto(inv, sub, make([]gf.Elem, k*k)) {
			return nil, fmt.Errorf("coding: GF decode set %v singular", workers)
		}
		for l := 0; l < t.width; l++ {
			for i, w := range workers {
				b[i] = t.rows[w][row][l]
			}
			for j, v := range gfMulVec(inv, b) {
				out[(j*e.BlockRows+row)*t.width+l] = v
			}
		}
	}
	return out[:e.OrigRows*t.width], nil
}

// refPolyDecode is the polynomial decode through an LU-inverted
// Vandermonde system (LU.Factor, then SolveInto per unit column), for
// partials that each cover every row of the worker's product block. The
// decode set is the partials' workers in the given order.
func refPolyDecode(e *EncodedBilinear, partials []*Partial) (*mat.Dense, error) {
	c := e.Code
	ab := c.a * c.b
	if len(partials) != ab {
		return nil, fmt.Errorf("refPolyDecode: %d partials, want %d", len(partials), ab)
	}
	v := mat.New(ab, ab)
	for i, p := range partials {
		x := 1.0
		for exp := 0; exp < ab; exp++ {
			v.Set(i, exp, x)
			x *= c.alphas[p.Worker]
		}
	}
	lu := new(mat.LU)
	if err := lu.Factor(v); err != nil {
		return nil, err
	}
	inv := mat.New(ab, ab) // inv[exp][i]
	unit, col := make([]float64, ab), make([]float64, ab)
	for i := range unit {
		clear(unit)
		unit[i] = 1
		lu.SolveInto(col, unit)
		for exp, f := range col {
			inv.Set(exp, i, f)
		}
	}
	out := mat.New(e.ColsA, e.ColsB)
	for exp := 0; exp < ab; exp++ {
		j, l := exp%c.a, exp/c.a
		for row := 0; row < e.BlockColsA && j*e.BlockColsA+row < e.ColsA; row++ {
			for col := 0; col < e.BlockColsB && l*e.BlockColsB+col < e.ColsB; col++ {
				s := 0.0
				for i, p := range partials {
					s += inv.At(exp, i) * p.Values[row*e.BlockColsB+col]
				}
				out.Set(j*e.BlockColsA+row, l*e.BlockColsB+col, s)
			}
		}
	}
	return out, nil
}

// generatorRow is row i of a code's n×k generator gen: the mixing
// coefficients of coded partition i over the k data blocks, as a view.
func generatorRow[T Element](gen []T, k, i int) []T { return gen[i*k : (i+1)*k] }

// gfMulVec is M·x over the field into a fresh slice.
func gfMulVec(m *gf.Matrix, x []gf.Elem) []gf.Elem {
	rows, _ := m.Dims()
	y := make([]gf.Elem, rows)
	m.MulVecInto(y, x)
	return y
}
