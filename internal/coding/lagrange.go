package coding

import (
	"fmt"

	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/kernel"
)

// LagrangeCode implements Lagrange Coded Computing (Yu et al.,
// AISTATS'19), the generalisation of MDS/polynomial coding the paper
// points to in §2: it adds coded redundancy for *any* polynomial
// computation f applied to the data blocks, not just linear or bilinear
// maps.
//
// K data blocks X_1..X_K are interpolated by the encoding polynomial
//
//	u(z) = Σ_j X_j · ℓ_j(z)        (ℓ_j = Lagrange basis over points β_j)
//
// and worker i stores the share u(α_i). When every worker applies a
// polynomial f of total degree d to its share, f∘u has degree (K−1)·d,
// so any (K−1)·d + 1 worker results interpolate f∘u exactly — and
// evaluating it back at the β_j yields every f(X_j).
//
// Arithmetic is over GF(2³¹−1), making encode→compute→decode bit-exact.
// The first K evaluation points coincide with the β_j, so shares 0..K−1
// are systematic (they hold the raw blocks).
type LagrangeCode struct {
	k, n   int
	betas  []gf.Elem
	alphas []gf.Elem
	// parity[i-k][j] = ℓ_j(α_i) for the non-systematic shares: the mixing
	// coefficients depend only on the code's points, so they are computed
	// once here instead of on every encode.
	parity [][]gf.Elem
	exec   kernel.Exec
}

// NewLagrangeCode builds a code with n workers over k data blocks.
// The usable polynomial degree is bounded by n ≥ (k−1)·d + 1.
func NewLagrangeCode(n, k int) (*LagrangeCode, error) {
	if k < 1 || n < k {
		return nil, fmt.Errorf("coding: invalid Lagrange parameters n=%d k=%d", n, k)
	}
	betas := make([]gf.Elem, k)
	for j := range betas {
		betas[j] = gf.Elem(j + 1)
	}
	alphas := make([]gf.Elem, n)
	for i := range alphas {
		alphas[i] = gf.Elem(i + 1) // α_i = β_i for i < k → systematic prefix
	}
	parity := make([][]gf.Elem, n-k)
	for i := k; i < n; i++ {
		parity[i-k] = lagrangeBasisAt(betas, alphas[i])
	}
	return &LagrangeCode{k: k, n: n, betas: betas, alphas: alphas, parity: parity}, nil
}

// SetExec pins the code's parallel encode loops to the given pool and
// fan-out; the zero Exec uses the shared kernel pool with full fan-out.
func (c *LagrangeCode) SetExec(e kernel.Exec) { c.exec = e }

// K returns the number of data blocks.
func (c *LagrangeCode) K() int { return c.k }

// N returns the number of workers/shares.
func (c *LagrangeCode) N() int { return c.n }

// RecoveryThreshold returns the number of worker results needed to decode
// a degree-d polynomial computation.
func (c *LagrangeCode) RecoveryThreshold(degree int) int {
	if degree < 1 {
		degree = 1
	}
	return (c.k-1)*degree + 1
}

// Encode produces the n shares u(α_i) from k equal-length data blocks,
// elementwise. Share i has the same length as each block.
func (c *LagrangeCode) Encode(blocks [][]gf.Elem) ([][]gf.Elem, error) {
	return c.EncodeInto(nil, blocks)
}

// EncodeInto is Encode writing into dst, reusing its share storage when
// lengths match — the re-encode path of iterative Lagrange jobs, which
// would otherwise re-allocate every share each iteration. dst == nil
// allocates fresh shares; a non-nil dst must have n slots (their backing
// arrays may be nil or of any capacity). Steady-state re-encodes with a
// warm dst perform no allocation.
func (c *LagrangeCode) EncodeInto(dst [][]gf.Elem, blocks [][]gf.Elem) ([][]gf.Elem, error) {
	if len(blocks) != c.k {
		return nil, fmt.Errorf("coding: got %d blocks for k=%d", len(blocks), c.k)
	}
	size := len(blocks[0])
	for j, b := range blocks {
		if len(b) != size {
			return nil, fmt.Errorf("coding: block %d has length %d, want %d", j, len(b), size)
		}
	}
	if dst == nil {
		dst = make([][]gf.Elem, c.n)
	} else if len(dst) != c.n {
		return nil, fmt.Errorf("coding: encode dst has %d shares, want %d", len(dst), c.n)
	}
	for i := 0; i < c.n; i++ {
		dst[i] = kernel.GrowSlice(dst[i], size)
		if i < c.k {
			// Systematic fast path: α_i == β_i for i < k.
			copy(dst[i], blocks[i])
		} else {
			clear(dst[i])
		}
	}
	if c.n == c.k {
		return dst, nil // fully systematic: nothing left to mix
	}
	// Band-split the parity mixing over the element dimension: each
	// participant owns elements [lo, hi) of every non-systematic share.
	// The serial case calls mixParity directly — no closure, so warm
	// steady-state re-encodes allocate nothing.
	if c.exec.Workers() == 1 {
		c.mixParity(dst, blocks, 0, size)
	} else {
		c.exec.For(size, encodeChunk(c.n-c.k, c.k, 1), func(lo, hi int) {
			c.mixParity(dst, blocks, lo, hi)
		})
	}
	return dst, nil
}

// mixParity accumulates elements [lo, hi) of every non-systematic share
// with the gf.Axpy mul-accumulate kernel over the cached ℓ_j(α_i)
// coefficients.
func (c *LagrangeCode) mixParity(shares, blocks [][]gf.Elem, lo, hi int) {
	for i := c.k; i < c.n; i++ {
		share := shares[i]
		coeffs := c.parity[i-c.k]
		for j, b := range blocks {
			gf.Axpy(share[lo:hi], coeffs[j], b[lo:hi])
		}
	}
}

// LagrangeWorkspace holds the reusable decode state of one LagrangeCode:
// the selected worker set, its evaluation points, and the interpolation
// weight matrix, recycled across rounds. Not safe for concurrent decodes.
type LagrangeWorkspace struct {
	workers []int
	pts     []gf.Elem
	weights [][]gf.Elem
}

// NewDecodeWorkspace returns an empty decode workspace for c.
func (c *LagrangeCode) NewDecodeWorkspace() *LagrangeWorkspace {
	return &LagrangeWorkspace{}
}

// Decode reconstructs f(X_1)..f(X_K) from worker results f(u(α_i)).
// results maps worker index → its computed share (all equal length);
// degree is the total degree of f. At least RecoveryThreshold(degree)
// results are required.
func (c *LagrangeCode) Decode(results map[int][]gf.Elem, degree int) ([][]gf.Elem, error) {
	return c.DecodeInto(nil, results, degree, nil)
}

// DecodeInto is Decode writing into dst — k blocks (nil allocates them)
// whose storage is reused when block lengths match the result size, with
// ws recycling the interpolation scratch across rounds. Like the other
// codecs' Into forms, a non-nil dst of the wrong block count is an error.
func (c *LagrangeCode) DecodeInto(dst [][]gf.Elem, results map[int][]gf.Elem, degree int, ws *LagrangeWorkspace) ([][]gf.Elem, error) {
	if dst != nil && len(dst) != c.k {
		return nil, fmt.Errorf("coding: decode dst has %d blocks, want %d", len(dst), c.k)
	}
	t := c.RecoveryThreshold(degree)
	if len(results) < t {
		return nil, fmt.Errorf("%w: have %d results, degree-%d decode needs %d",
			ErrInsufficient, len(results), degree, t)
	}
	if ws == nil {
		ws = c.NewDecodeWorkspace()
	}
	// Pick t results deterministically (ascending worker index).
	ws.workers = ws.workers[:0]
	for w := range results {
		if w < 0 || w >= c.n {
			return nil, fmt.Errorf("coding: result from unknown worker %d", w)
		}
		ws.workers = append(ws.workers, w)
	}
	sortInts(ws.workers)
	workers := ws.workers[:t]
	size := -1
	for _, w := range workers {
		if size == -1 {
			size = len(results[w])
		} else if len(results[w]) != size {
			return nil, fmt.Errorf("coding: worker %d result length %d, want %d", w, len(results[w]), size)
		}
	}
	if cap(ws.pts) < t {
		ws.pts = make([]gf.Elem, t)
	}
	ws.pts = ws.pts[:t]
	for i, w := range workers {
		ws.pts[i] = c.alphas[w]
	}
	// Interpolation weights from the t sample points to each β_j:
	// out_j = Σ_i y_i · ℓ_i^{pts}(β_j).
	if cap(ws.weights) < c.k {
		ws.weights = make([][]gf.Elem, c.k)
	}
	ws.weights = ws.weights[:c.k]
	for j := 0; j < c.k; j++ {
		ws.weights[j] = appendLagrangeBasisAt(ws.weights[j][:0], ws.pts, c.betas[j])
	}
	if dst == nil {
		dst = make([][]gf.Elem, c.k)
	}
	for j := 0; j < c.k; j++ {
		dst[j] = kernel.GrowSlice(dst[j], size)
		clear(dst[j])
		// Back-substitution: accumulate each selected worker's share into
		// the output block with the mul-accumulate kernel.
		block := dst[j]
		for i, w := range workers {
			gf.Axpy(block, ws.weights[j][i], results[w])
		}
	}
	return dst, nil
}

// CompleteGFShares assembles per-worker complete result vectors from a GF
// round's partials — the form LagrangeCode.Decode consumes. A worker whose
// partials (possibly several: split results, reassignment extras) cover
// every one of the blockRows rows contributes one length blockRows·width
// vector, where width is the partials' common RowWidth (row-major
// width-wide, like batched decode output); mixing widths is an error.
// Workers with partial coverage are omitted (Lagrange interpolation needs
// whole share evaluations, unlike the per-row MDS decode). Duplicate
// (worker, row) deliveries are benign: every copy is the same
// deterministic field value, so the last write wins.
func CompleteGFShares(partials []*GFPartial, blockRows int) (map[int][]gf.Elem, error) {
	width := 1
	if len(partials) > 0 {
		width = partials[0].Width()
	}
	vecs := map[int][]gf.Elem{}
	covered := map[int][]bool{}
	count := map[int]int{}
	for _, p := range partials {
		if p.Width() != width {
			return nil, fmt.Errorf("coding: mixed row widths %d and %d", width, p.Width())
		}
		if err := validatePartial(p.Worker, p.Ranges, len(p.Values), width, blockRows); err != nil {
			return nil, err
		}
		v := vecs[p.Worker]
		if v == nil {
			v = make([]gf.Elem, blockRows*width)
			vecs[p.Worker] = v
			covered[p.Worker] = make([]bool, blockRows)
		}
		cov := covered[p.Worker]
		at := 0
		for _, r := range p.Ranges {
			for row := r.Lo; row < r.Hi; row++ {
				copy(v[row*width:(row+1)*width], p.Values[at:at+width])
				if !cov[row] {
					cov[row] = true
					count[p.Worker]++
				}
				at += width
			}
		}
	}
	for w, c := range count {
		if c < blockRows {
			delete(vecs, w)
		}
	}
	return vecs, nil
}

// lagrangeBasisAt returns [ℓ_0(x), …, ℓ_{m−1}(x)] for the basis defined
// by the distinct points pts.
func lagrangeBasisAt(pts []gf.Elem, x gf.Elem) []gf.Elem {
	return appendLagrangeBasisAt(nil, pts, x)
}

// appendLagrangeBasisAt appends the basis values onto dst, reusing its
// storage.
func appendLagrangeBasisAt(dst []gf.Elem, pts []gf.Elem, x gf.Elem) []gf.Elem {
	m := len(pts)
	for i := 0; i < m; i++ {
		num := gf.Elem(1)
		den := gf.Elem(1)
		for j := 0; j < m; j++ {
			if j == i {
				continue
			}
			num = gf.Mul(num, gf.Sub(x, pts[j]))
			den = gf.Mul(den, gf.Sub(pts[i], pts[j]))
		}
		dst = append(dst, gf.Mul(num, gf.Inv(den)))
	}
	return dst
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
