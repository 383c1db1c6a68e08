package mat

import "fmt"

// PadRows returns A zero-padded at the bottom so its row count is a
// multiple of k. If it already is, A itself is returned (no copy).
func PadRows(a *Dense, k int) *Dense {
	if k <= 0 {
		panic(fmt.Sprintf("mat: PadRows k=%d", k))
	}
	rem := a.rows % k
	if rem == 0 {
		return a
	}
	pad := k - rem
	out := New(a.rows+pad, a.cols)
	copy(out.data, a.data)
	return out
}

// SplitCols divides A into k contiguous column blocks whose horizontal
// concatenation reproduces A (zero-padding columns on the right if needed).
func SplitCols(a *Dense, k int) []*Dense {
	if k <= 0 {
		panic(fmt.Sprintf("mat: SplitCols k=%d", k))
	}
	cols := a.cols
	per := (cols + k - 1) / k
	blocks := make([]*Dense, k)
	for b := 0; b < k; b++ {
		blk := New(a.rows, per)
		for i := 0; i < a.rows; i++ {
			for j := 0; j < per; j++ {
				src := b*per + j
				if src < cols {
					blk.data[i*per+j] = a.data[i*cols+src]
				}
			}
		}
		blocks[b] = blk
	}
	return blocks
}

// PaddedRows reports the row count after PadRows(a, k).
func PaddedRows(rows, k int) int {
	if rows%k == 0 {
		return rows
	}
	return rows + k - rows%k
}
