// Package coding implements the erasure-coding layer of the S2C2 stack:
//
//   - one systematic (n,k) MDS code with a Cauchy-parity generator (any k
//     of the n coded partitions suffice to decode), written once over two
//     fields: float64 (MDSCode) and the exact prime field GF(2³¹−1)
//     (GFMDSCode) for bit-exact round trips and property tests, and
//   - polynomial and Lagrange codes (Yu et al.) for bilinear and
//     polynomial computations such as the Hessian form Aᵀ·diag(x)·B.
//
// All codecs share the partial-result model of the paper: a worker holds
// one coded partition and may return results for an arbitrary subset of
// its partition's row indices; the decoder reconstructs every output row
// from any k (or a·b, for polynomial codes) worker results covering it.
package coding

import (
	"errors"
	"fmt"
	"slices"

	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/kernel"
)

// ErrInsufficient is returned when a row is covered by fewer worker
// results than the code requires.
var ErrInsufficient = errors.New("coding: insufficient results to decode")

// Range is a half-open row-index interval [Lo, Hi) within a partition.
type Range struct {
	Lo, Hi int
}

// Len returns the number of rows in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// TotalRows sums the lengths of the ranges.
func TotalRows(ranges []Range) int {
	n := 0
	for _, r := range ranges {
		n += r.Len()
	}
	return n
}

// AppendNormalizeRanges sorts ranges, drops empties, and merges overlaps,
// appending the canonical minimal representation onto dst (which must be
// empty and must not alias ranges) so hot paths can reuse a result's
// Range storage. It performs no allocation once dst has capacity.
func AppendNormalizeRanges(dst []Range, ranges []Range) []Range {
	for _, r := range ranges {
		if r.Len() > 0 {
			// Amortized: callers reuse dst's backing storage round to round.
			//s2c2:waive noalloc
			dst = append(dst, r)
		}
	}
	// Insertion sort: range lists are short and this avoids the closure
	// allocation of sort.Slice.
	for i := 1; i < len(dst); i++ {
		for j := i; j > 0 && dst[j].Lo < dst[j-1].Lo; j-- {
			dst[j], dst[j-1] = dst[j-1], dst[j]
		}
	}
	out := dst[:0]
	for _, r := range dst {
		if len(out) > 0 && r.Lo <= out[len(out)-1].Hi {
			if r.Hi > out[len(out)-1].Hi {
				out[len(out)-1].Hi = r.Hi
			}
			continue
		}
		// Writes through dst's own storage (out aliases dst[:0]).
		//s2c2:waive noalloc
		out = append(out, r)
	}
	return out
}

// Element is the value type of a coded computation: float64, or gf.Elem
// for the MDS code's exact field.
type Element interface{ float64 | gf.Elem }

// PartialOf is the result a worker returns for one round: the values of
// its assigned rows of the coded computation. Values holds the computed
// rows concatenated in range order, RowWidth values per row (lane l of
// row r at Values[r*RowWidth+l]): one for vector results, the batch width
// or matrix width otherwise.
type PartialOf[T Element] struct {
	Worker   int
	Ranges   []Range
	RowWidth int
	Values   []T
}

// Partial is a float64 partial result.
type Partial = PartialOf[float64]

// GFPartial is an exact GF(2³¹−1) partial result.
type GFPartial = PartialOf[gf.Elem]

// Width returns the partial's row width, treating the zero value as 1.
func (p *PartialOf[T]) Width() int { return max(p.RowWidth, 1) }

// validatePartial is the validation rule a partial meets when it enters a
// decode (rowTable.add, and the Lagrange decode): in-bounds ranges, and a
// value count matching rows × width.
func validatePartial(worker int, ranges []Range, numValues, rowWidth, blockRows int) error {
	rows := 0
	for _, r := range ranges {
		if r.Lo < 0 || r.Hi > blockRows || r.Lo > r.Hi {
			return fmt.Errorf("coding: partial from worker %d has range [%d,%d) outside [0,%d)", worker, r.Lo, r.Hi, blockRows)
		}
		rows += r.Len()
	}
	if want := rows * rowWidth; numValues != want {
		return fmt.Errorf("coding: partial from worker %d has %d values, want %d", worker, numValues, want)
	}
	return nil
}

// span is one contiguous row range of one registered partial: the worker
// in arrival slot slot computed rows [lo, hi), rowWidth values a row, and
// vals views them inside the partial's own Values — the table never
// copies result data.
type span[T any] struct {
	slot   int
	lo, hi int
	vals   []T
}

// rowBand is a run of partition rows [lo, hi) decoded from one selection
// of k spans — sel[0:k], ordered by ascending worker id.
type rowBand struct {
	lo, hi int
	sel    int // offset of the band's k span indices in rowTable.sel
}

// rowTable turns the partial results of one decode pass into bands, one
// implementation of the trickiest bookkeeping for both MDS fields and the
// polynomial decode. Rows between two consecutive range boundaries of the
// registered partials are covered by exactly the same spans, so coverage
// is decided once per band, never per row: building costs
// O(#ranges · log #ranges + #bands · coverage depth) and is independent
// of how many rows a band holds.
//
// Each band is decoded from the first k workers, in arrival order, that
// cover it — the rule the per-row decoders applied to every row — then
// ordered by worker id so decode-system cache keys ignore arrival order.
//
// A rowTable is reusable: reset clears it, add repopulates it and bands
// rebuilds the band list, all on retained storage, so a steady-state
// rebuild performs no allocation.
type rowTable[T any] struct {
	blockRows int
	rowWidth  int
	order     []int     // workers in arrival order
	spans     []span[T] // in registration order

	k     int
	list  []rowBand
	sel   []int // k span indices per band
	cuts  []int // scratch: sorted distinct range boundaries
	byLo  []int // scratch: span indices ordered by lo
	cover []int // scratch: spans covering the band being built
	pick  []int // scratch: per arrival slot, its latest covering span
}

// reset prepares the table for a new decode round over partitions of
// blockRows rows, keeping storage for reuse.
func (t *rowTable[T]) reset(blockRows int) {
	t.blockRows = blockRows
	t.rowWidth = 0
	t.order = t.order[:0]
	clear(t.spans) // drop the previous round's views of its partials
	t.spans = t.spans[:0]
	t.list = t.list[:0]
}

// add registers one partial result: the given worker computed values for
// the rows in ranges, rowWidth values per row. Duplicate (worker, row)
// entries are legal — the rpc reassignment path delivers a worker's
// original ranges and its reassigned extras as separate partials, and a
// slow worker's late duplicate of an already-covered row may follow. The
// last registered copy wins, which is sound because every copy of a
// (worker, row) value is the same deterministic kernel output.
func (t *rowTable[T]) add(worker int, ranges []Range, values []T, rowWidth int) error {
	if err := validatePartial(worker, ranges, len(values), rowWidth, t.blockRows); err != nil {
		return err
	}
	if t.rowWidth == 0 {
		t.rowWidth = rowWidth
	} else if t.rowWidth != rowWidth {
		return fmt.Errorf("coding: mixed row widths %d and %d", t.rowWidth, rowWidth)
	}
	slot := 0
	for slot < len(t.order) && t.order[slot] != worker {
		slot++
	}
	if slot == len(t.order) {
		// Amortized: order resets to length 0 each round, capacity retained.
		//s2c2:waive noalloc
		t.order = append(t.order, worker)
	}
	at := 0
	for _, r := range ranges {
		n := r.Len() * rowWidth
		if n > 0 {
			// Amortized: spans resets to length 0 each round, capacity retained.
			//s2c2:waive noalloc
			t.spans = append(t.spans, span[T]{slot: slot, lo: r.Lo, hi: r.Hi, vals: values[at : at+n]})
		}
		at += n
	}
	return nil
}

// bands builds the band list: every row of [0, blockRows) must be covered
// by at least k distinct workers, or the first uncovered row is reported
// as ErrInsufficient. Adjacent bands that select the same spans (a
// boundary contributed only by a span nobody selected) are merged.
func (t *rowTable[T]) bands(k int) error {
	t.k = k
	t.list = t.list[:0]
	t.sel = t.sel[:0]
	// Boundaries: the band edges are the distinct range ends.
	//s2c2:waive noalloc — scratch below retains capacity across rounds
	t.cuts = append(t.cuts[:0], 0, t.blockRows)
	t.byLo = t.byLo[:0]
	ns := len(t.spans)
	for i, s := range t.spans {
		//s2c2:waive noalloc
		t.cuts = append(t.cuts, s.lo, s.hi)
		// One sortable key per span: lo major, registration index minor.
		//s2c2:waive noalloc
		t.byLo = append(t.byLo, s.lo*ns+i)
	}
	slices.Sort(t.cuts)
	t.cuts = slices.Compact(t.cuts)
	slices.Sort(t.byLo)
	t.pick = kernel.GrowInts(t.pick, len(t.order))
	for i := range t.pick {
		t.pick[i] = -1
	}
	t.cover = t.cover[:0]
	next := 0 // first span of byLo not yet opened
	for c := 0; c+1 < len(t.cuts); c++ {
		lo, hi := t.cuts[c], t.cuts[c+1]
		// Close the spans that ended at lo, open the ones that start there.
		live := 0
		for _, si := range t.cover {
			if t.spans[si].hi > lo {
				t.cover[live] = si
				live++
			}
		}
		t.cover = t.cover[:live]
		for next < ns && t.spans[t.byLo[next]%ns].lo == lo {
			//s2c2:waive noalloc
			t.cover = append(t.cover, t.byLo[next]%ns)
			next++
		}
		// Per arrival slot, the last registered covering span wins.
		for _, si := range t.cover {
			if slot := t.spans[si].slot; si > t.pick[slot] {
				t.pick[slot] = si
			}
		}
		base := len(t.sel)
		for slot := range t.order {
			if si := t.pick[slot]; si >= 0 && len(t.sel)-base < k {
				//s2c2:waive noalloc
				t.sel = append(t.sel, si)
			}
			t.pick[slot] = -1
		}
		sel := t.sel[base:]
		if len(sel) < k {
			return fmt.Errorf("%w: row %d covered by %d of %d needed workers", ErrInsufficient, lo, len(sel), k)
		}
		// Canonical order: ascending worker id.
		for i := 1; i < k; i++ {
			for j := i; j > 0 && t.order[t.spans[sel[j]].slot] < t.order[t.spans[sel[j-1]].slot]; j-- {
				sel[j], sel[j-1] = sel[j-1], sel[j]
			}
		}
		if n := len(t.list); n > 0 && t.list[n-1].hi == lo && slices.Equal(sel, t.sel[t.list[n-1].sel:base]) {
			t.list[n-1].hi = hi
			t.sel = t.sel[:base]
			continue
		}
		//s2c2:waive noalloc
		t.list = append(t.list, rowBand{lo: lo, hi: hi, sel: base})
	}
	return nil
}

// workers writes band b's k selected workers (ascending) into dst.
func (t *rowTable[T]) workers(dst []int, b rowBand) []int {
	dst = dst[:0]
	for _, si := range t.sel[b.sel : b.sel+t.k] {
		// Writes through dst's reused storage (bounded by k workers).
		//s2c2:waive noalloc
		dst = append(dst, t.order[t.spans[si].slot])
	}
	return dst
}

// values returns the values band b's i-th selected worker computed for
// rows [lo, hi) ⊆ [b.lo, b.hi): rowWidth per row, contiguous, viewed in
// place inside that worker's partial.
func (t *rowTable[T]) values(b rowBand, i, lo, hi int) []T {
	s := &t.spans[t.sel[b.sel+i]]
	return s.vals[(lo-s.lo)*t.rowWidth : (hi-s.lo)*t.rowWidth]
}

// encodeChunk sizes encode bands to the active backend's per-chunk flop
// target for axpy work across n partitions and k blocks.
func encodeChunk(n, k, cols int) int {
	return kernel.ChunkRows(2 * n * k * cols)
}

// buildPartials populates the table from partials and builds its bands
// for a k-of-n decode, the shared entry point of the MDS decode (both
// fields) and the polynomial one. A partial's RowWidth 0 reads as 1.
func buildPartials[T Element](t *rowTable[T], partials []*PartialOf[T], blockRows, k int) error {
	t.reset(blockRows)
	for _, p := range partials {
		if err := t.add(p.Worker, p.Ranges, p.Values, p.Width()); err != nil {
			return err
		}
	}
	return t.bands(k)
}
