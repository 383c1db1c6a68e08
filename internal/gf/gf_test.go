package gf

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/coded-computing/s2c2/internal/kernel"
)

// TestAxpyMatchesScalarOps checks the mul-accumulate kernel against the
// definitional Add/Mul chain over random data, every unroll-tail length,
// and the field's edge values — on every kernel backend compiled into
// this binary (GF results must be exact everywhere, vector lanes
// included).
func TestAxpyMatchesScalarOps(t *testing.T) {
	prev := kernel.ActiveBackend()
	defer kernel.SetBackend(prev) //nolint:errcheck
	for _, backend := range kernel.Backends() {
		if err := kernel.SetBackend(backend); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		edge := []Elem{0, 1, 2, Elem(P - 1), Elem(P - 2), Elem(P / 2)}
		coeffs := append([]Elem{}, edge...)
		for i := 0; i < 10; i++ {
			coeffs = append(coeffs, New(rng.Uint64()))
		}
		for _, c := range coeffs {
			for n := 0; n <= 35; n++ { // covers empty, vector+scalar tails, full lanes
				dst := make([]Elem, n)
				src := make([]Elem, n)
				for i := range dst {
					if i < len(edge) {
						dst[i], src[i] = edge[i], edge[(i+1)%len(edge)]
					} else {
						dst[i], src[i] = New(rng.Uint64()), New(rng.Uint64())
					}
				}
				want := make([]Elem, n)
				for i := range want {
					want[i] = Add(dst[i], Mul(c, src[i]))
				}
				Axpy(dst, c, src)
				for i := range want {
					if dst[i] != want[i] {
						t.Fatalf("backend=%s c=%d n=%d i=%d: Axpy %d != scalar %d",
							backend, c, n, i, dst[i], want[i])
					}
				}
			}
		}
	}
}

// naiveMulVec is the definitional y = M·x: per-element Mul and Add, the
// pre-folding implementation the optimized reduction must agree with.
func naiveMulVec(m *Matrix, x []Elem) []Elem {
	y := make([]Elem, m.rows)
	for i := 0; i < m.rows; i++ {
		var acc Elem
		for j, v := range m.Row(i) {
			acc = Add(acc, Mul(v, x[j]))
		}
		y[i] = acc
	}
	return y
}

// TestMulVecIntoExhaustiveSmall enumerates every assignment of boundary
// values (0, 1, 2, P−2, P−1) to tiny matrix/vector shapes, so the folded
// reduction's carry and subtract edges are all exercised.
func TestMulVecIntoExhaustiveSmall(t *testing.T) {
	bound := []Elem{0, 1, 2, Elem(P - 2), Elem(P - 1)}
	for _, dims := range [][2]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}, {1, 3}} {
		rows, cols := dims[0], dims[1]
		cells := rows*cols + cols // matrix entries plus vector entries
		total := 1
		for i := 0; i < cells; i++ {
			total *= len(bound)
		}
		m := zeroMatrix(rows, cols)
		x := make([]Elem, cols)
		y := make([]Elem, rows)
		for idx := 0; idx < total; idx++ {
			v := idx
			for i := 0; i < rows*cols; i++ {
				m.data[i] = bound[v%len(bound)]
				v /= len(bound)
			}
			for i := 0; i < cols; i++ {
				x[i] = bound[v%len(bound)]
				v /= len(bound)
			}
			m.MulVecInto(y, x)
			want := naiveMulVec(m, x)
			for i := range want {
				if y[i] != want[i] {
					t.Fatalf("%dx%d case %d row %d: folded %d != naive %d",
						rows, cols, idx, i, y[i], want[i])
				}
			}
		}
	}
}

// TestMulVecIntoMatchesNaive covers longer rows (accumulator stays folded
// across many worst-case products) and random shapes.
func TestMulVecIntoMatchesNaive(t *testing.T) {
	// Worst-case accumulation: every operand P−1, row long enough that an
	// unfolded accumulator would overflow many times over.
	m := zeroMatrix(1, 4097)
	x := make([]Elem, 4097)
	for i := range x {
		m.data[i] = Elem(P - 1)
		x[i] = Elem(P - 1)
	}
	y := make([]Elem, 1)
	m.MulVecInto(y, x)
	if want := naiveMulVec(m, x); y[0] != want[0] {
		t.Fatalf("worst-case row: folded %d != naive %d", y[0], want[0])
	}

	rng := rand.New(rand.NewSource(21))
	for _, cols := range []int{3, 4, 5, 7, 8, 9, 16, 17, 33, 100} {
		rows := 1 + rng.Intn(6)
		m := zeroMatrix(rows, cols)
		for i := range m.data {
			m.data[i] = New(rng.Uint64())
		}
		x := make([]Elem, cols)
		for i := range x {
			x[i] = New(rng.Uint64())
		}
		y := make([]Elem, rows)
		m.MulVecInto(y, x)
		want := naiveMulVec(m, x)
		for i := range want {
			if y[i] != want[i] {
				t.Fatalf("%dx%d row %d: folded %d != naive %d", rows, cols, i, y[i], want[i])
			}
		}
	}
}

func TestAxpyLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Axpy with mismatched lengths must panic")
		}
	}()
	Axpy(make([]Elem, 3), 1, make([]Elem, 4))
}

func BenchmarkAxpy(b *testing.B) {
	dst := make([]Elem, 4096)
	src := make([]Elem, 4096)
	for i := range src {
		src[i] = New(uint64(i) * 2654435761)
	}
	b.SetBytes(4096 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Axpy(dst, 123456789, src)
	}
}

func BenchmarkAxpyScalarReference(b *testing.B) {
	dst := make([]Elem, 4096)
	src := make([]Elem, 4096)
	for i := range src {
		src[i] = New(uint64(i) * 2654435761)
	}
	b.SetBytes(4096 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range dst {
			dst[j] = Add(dst[j], Mul(123456789, src[j]))
		}
	}
}

// TestMulVecRangeIntoMatchesFull checks the ranged mat-vec (the worker
// kernel of the exact distributed round) against the full MulVec on
// random matrices and every [lo, hi) window.
func TestMulVecRangeIntoMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		rows := 1 + rng.Intn(12)
		cols := 1 + rng.Intn(9)
		m := zeroMatrix(rows, cols)
		for i := range m.data {
			m.data[i] = New(rng.Uint64())
		}
		x := make([]Elem, cols)
		for i := range x {
			x[i] = New(rng.Uint64())
		}
		full := mulVec(m, x)
		for lo := 0; lo <= rows; lo++ {
			for hi := lo; hi <= rows; hi++ {
				got := make([]Elem, hi-lo)
				m.MulVecRangeInto(got, x, lo, hi)
				for i := range got {
					if got[i] != full[lo+i] {
						t.Fatalf("rows [%d,%d) index %d: %d != full %d", lo, hi, i, got[i], full[lo+i])
					}
				}
			}
		}
	}
}

// TestUint32Views checks the zero-copy reinterpret bridges: the uint32
// view aliases the element storage both ways, and Valid flags exactly
// the non-canonical lanes.
func TestUint32Views(t *testing.T) {
	es := []Elem{0, 1, Elem(P - 1)}
	u := AsUint32s(es)
	if len(u) != len(es) {
		t.Fatalf("length %d != %d", len(u), len(es))
	}
	u[1] = 99
	if es[1] != 99 {
		t.Fatal("AsUint32s does not alias the element storage")
	}
	back := AsElems(u)
	back[2] = 7
	if es[2] != 7 {
		t.Fatal("AsElems does not alias the lane storage")
	}
	if AsUint32s(nil) != nil || AsElems(nil) != nil {
		t.Fatal("empty views must be nil")
	}
	if !Valid(es) {
		t.Fatalf("canonical elements flagged invalid: %v", es)
	}
	if Valid([]Elem{0, Elem(P)}) {
		t.Fatal("P itself must be non-canonical")
	}
	if Valid([]Elem{Elem(^uint32(0))}) {
		t.Fatal("max uint32 must be non-canonical")
	}
}

// TestNewMatrixFromDataAdoptsStorage pins the no-copy contract.
func TestNewMatrixFromDataAdoptsStorage(t *testing.T) {
	data := []Elem{1, 2, 3, 4, 5, 6}
	m := NewMatrixFromData(2, 3, data)
	data[4] = 42
	if m.At(1, 1) != 42 {
		t.Fatal("NewMatrixFromData copied instead of adopting")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch must panic")
		}
	}()
	NewMatrixFromData(2, 2, data)
}

func TestFieldAxiomsSpot(t *testing.T) {
	a, b := Elem(P-1), Elem(5)
	if Add(a, b) != Elem(4) {
		t.Fatalf("Add wraparound: %d", Add(a, b))
	}
	if Sub(Elem(3), Elem(5)) != Elem(P-2) {
		t.Fatalf("Sub wraparound: %d", Sub(Elem(3), Elem(5)))
	}
	if Neg(0) != 0 {
		t.Fatal("Neg(0) != 0")
	}
	if Add(Elem(7), Neg(Elem(7))) != 0 {
		t.Fatal("a + (-a) != 0")
	}
}

func TestNewReduction(t *testing.T) {
	if New(P) != 0 || New(P+3) != 3 {
		t.Fatal("New does not reduce mod P")
	}
}

func TestInverseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(raw uint64) bool {
		a := New(raw)
		if a == 0 {
			a = 1
		}
		return Mul(a, Inv(a)) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestDistributivityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(x, y, z uint64) bool {
		a, b, c := New(x), New(y), New(z)
		return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestPow(t *testing.T) {
	if Pow(2, 10) != 1024 {
		t.Fatalf("2^10 = %d", Pow(2, 10))
	}
	if Pow(5, 0) != 1 {
		t.Fatal("a^0 != 1")
	}
	// Fermat's little theorem: a^(P-1) == 1 for a != 0.
	if Pow(1234567, P-1) != 1 {
		t.Fatal("Fermat violated")
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) must panic")
		}
	}()
	Inv(0)
}

// TestSolveRoundTripProperty solves M·x = b through InvertInto, the
// package's one solver, and recovers x exactly.
func TestSolveRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		// Vandermonde systems with distinct nodes are always nonsingular.
		xs := distinctElems(n, r)
		m := vandermonde(xs, n)
		want := make([]Elem, n)
		for i := range want {
			want[i] = New(r.Uint64())
		}
		b := mulVec(m, want)
		inv, ok := invert(m)
		if !ok {
			return false
		}
		got := mulVec(inv, b)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveSingular(t *testing.T) {
	m := zeroMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 2)
	m.Set(1, 1, 4)
	if _, ok := invert(m); ok {
		t.Fatal("expected singular")
	}
}

func TestInvert(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	xs := distinctElems(5, rng)
	m := vandermonde(xs, 5)
	inv, ok := invert(m)
	if !ok {
		t.Fatal("Vandermonde must be invertible")
	}
	// M · M⁻¹ == I, checked via action on random vectors.
	for trial := 0; trial < 5; trial++ {
		x := make([]Elem, 5)
		for i := range x {
			x[i] = New(rng.Uint64())
		}
		y := mulVec(inv, mulVec(m, x))
		for i := range x {
			if y[i] != x[i] {
				t.Fatalf("M⁻¹Mx != x at %d", i)
			}
		}
	}
}

func TestVandermondeAnyRowsInvertible(t *testing.T) {
	// The defining MDS property: every square submatrix formed by choosing
	// k rows of an n-row Vandermonde with distinct nodes is invertible.
	rng := rand.New(rand.NewSource(5))
	n, k := 8, 4
	xs := distinctElems(n, rng)
	v := vandermonde(xs, k)
	for trial := 0; trial < 50; trial++ {
		rows := rng.Perm(n)[:k]
		sub := zeroMatrix(k, k)
		for i, r := range rows {
			copy(sub.Row(i), v.Row(r))
		}
		if _, ok := invert(sub); !ok {
			t.Fatalf("rows %v gave singular submatrix", rows)
		}
	}
}

// TestMulRangeIntoMatchesNaive checks rows of M·B accumulated as Axpy
// sweeps (mulRangeInto, the pattern the GF decode runs) against the
// definitional per-element Mul/Add chain over shapes straddling the
// vector lane widths, on every kernel backend — plus band splits, which
// must produce identical values (the dst is band-relative).
func TestMulRangeIntoMatchesNaive(t *testing.T) {
	prev := kernel.ActiveBackend()
	defer kernel.SetBackend(prev) //nolint:errcheck
	rng := rand.New(rand.NewSource(8))
	shapes := [][3]int{{1, 1, 1}, {3, 2, 5}, {4, 4, 7}, {7, 5, 8}, {8, 8, 9}, {5, 12, 33}, {12, 12, 100}}
	for _, s := range shapes {
		r, k, c := s[0], s[1], s[2]
		m := zeroMatrix(r, k)
		b := zeroMatrix(k, c)
		fill := func(mat *Matrix) {
			d := mat.Data()
			for i := range d {
				switch i % 5 {
				case 0:
					d[i] = Elem(P - 1)
				case 1:
					d[i] = 0
				default:
					d[i] = New(rng.Uint64())
				}
			}
		}
		fill(m)
		fill(b)
		want := make([]Elem, r*c)
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				var acc Elem
				for tt := 0; tt < k; tt++ {
					acc = Add(acc, Mul(m.At(i, tt), b.At(tt, j)))
				}
				want[i*c+j] = acc
			}
		}
		for _, backend := range kernel.Backends() {
			if err := kernel.SetBackend(backend); err != nil {
				t.Fatal(err)
			}
			got := make([]Elem, r*c)
			mulRangeInto(got, m, b, 0, r)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("backend=%s %dx%d·%dx%d i=%d: %d want %d", backend, r, k, k, c, i, got[i], want[i])
				}
			}
			if r > 2 {
				band := make([]Elem, (r-2)*c)
				mulRangeInto(band, m, b, 1, r-1)
				for i := range band {
					if band[i] != want[c+i] {
						t.Fatalf("backend=%s %dx%d·%dx%d: band value %d want %d", backend, r, k, k, c, band[i], want[c+i])
					}
				}
			}
		}
	}
}

// TestInvertMatchesEntrywise pins InvertInto to the defining identities M·M⁻¹ = M⁻¹·M = I, entry by entry via mulRangeInto.
func TestInvertMatchesEntrywise(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 2, 3, 5, 8, 12} {
		m := vandermonde(distinctElems(n, rng), n)
		inv, ok := invert(m)
		if !ok {
			t.Fatalf("n=%d: Vandermonde must be invertible", n)
		}
		check := func(a, b *Matrix, name string) {
			prod := make([]Elem, n*n)
			mulRangeInto(prod, a, b, 0, n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					want := Elem(0)
					if i == j {
						want = 1
					}
					if prod[i*n+j] != want {
						t.Fatalf("n=%d %s[%d,%d] = %d want %d", n, name, i, j, prod[i*n+j], want)
					}
				}
			}
		}
		check(m, inv, "M·M⁻¹")
		check(inv, m, "M⁻¹·M")
		scratch := make([]Elem, n*n)
		if allocs := testing.AllocsPerRun(10, func() { InvertInto(inv, m, scratch) }); allocs != 0 {
			t.Fatalf("n=%d: InvertInto allocates %v/op, want 0", n, allocs)
		}
	}
}

func TestInvertSingular(t *testing.T) {
	m := zeroMatrix(3, 3)
	// Row 2 = row 0 + row 1.
	vals := [][]Elem{{1, 2, 3}, {4, 5, 6}, {5, 7, 9}}
	for i, row := range vals {
		copy(m.Row(i), row)
	}
	if _, ok := invert(m); ok {
		t.Fatal("expected singular")
	}
	// The pivot search must survive needing a row swap: leading zero block.
	sw := zeroMatrix(2, 2)
	sw.Set(0, 1, 3)
	sw.Set(1, 0, 5)
	inv, ok := invert(sw)
	if !ok {
		t.Fatal("antidiagonal matrix must be invertible")
	}
	if got := Mul(inv.At(0, 1), 5); got != 1 {
		t.Fatalf("inv[0,1]·5 = %d want 1", got)
	}
}

// mulRangeInto writes rows [lo, hi) of M·B into y (band-relative,
// row-major, length (hi−lo)·B.cols), each row accumulated as one Axpy
// sweep per column of M.
func mulRangeInto(y []Elem, m, b *Matrix, lo, hi int) {
	clear(y)
	n := b.cols
	for i := lo; i < hi; i++ {
		for t, c := range m.Row(i) {
			Axpy(y[(i-lo)*n:(i-lo+1)*n], c, b.Row(t))
		}
	}
}

// vandermonde returns the r-by-c matrix V[i][j] = xs[i]^j, r = len(xs).
// With distinct xs any c of its rows are linearly independent, which makes
// it the test suite's source of invertible systems.
func vandermonde(xs []Elem, c int) *Matrix {
	m := zeroMatrix(len(xs), c)
	for i, x := range xs {
		v := Elem(1)
		for j := 0; j < c; j++ {
			m.Set(i, j, v)
			v = Mul(v, x)
		}
	}
	return m
}

// invert is InvertInto into fresh storage, leaving m untouched.
func invert(m *Matrix) (*Matrix, bool) {
	n, _ := m.Dims()
	before := slices.Clone(m.Data())
	inv := zeroMatrix(n, n)
	ok := InvertInto(inv, m, make([]Elem, n*n))
	if !slices.Equal(m.Data(), before) {
		panic("InvertInto modified its input")
	}
	return inv, ok
}

func distinctElems(n int, rng *rand.Rand) []Elem {
	seen := map[Elem]bool{}
	out := make([]Elem, 0, n)
	for len(out) < n {
		e := New(rng.Uint64())
		if e == 0 || seen[e] {
			continue
		}
		seen[e] = true
		out = append(out, e)
	}
	return out
}

// zeroMatrix is a zeroed r-by-c matrix over fresh storage.
func zeroMatrix(r, c int) *Matrix { return NewMatrixFromData(r, c, make([]Elem, r*c)) }

// mulVec is M·x into a fresh slice.
func mulVec(m *Matrix, x []Elem) []Elem {
	y := make([]Elem, m.rows)
	m.MulVecInto(y, x)
	return y
}
