package coding

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"github.com/coded-computing/s2c2/internal/kernel"
	"github.com/coded-computing/s2c2/internal/mat"
)

// mdsGolden holds, per kernel backend and per code, FNV-1a hashes of the
// math.Float64bits of the float64 code's outputs in mdsGoldenHashes'
// order: the parity of an Encode and an EncodeInto re-encode, then
// DecodeMatVecInto over all-systematic, parity-heavy and mixed
// partial-coverage worker sets at width 1, then the same at width 4.
// Captured at commit 3c6620f, before the float64 and GF(2³¹−1) MDS codes
// shared one implementation. The backends' Axpy and mat-vec kernels round
// differently, so each has its own row.
var mdsGolden = map[string]map[[2]int][7]uint64{
	"generic": {
		{4, 2}: {0xbe5cb49cf072034b, 0xf6957fc7f08cf40e, 0x3d862798175bd988, 0x554c424ee270adb8,
			0x629710161ac91ffe, 0x25048dd1465e6d8d, 0x318252e622088ebd},
		{10, 7}: {0x1133436f254d12c1, 0xd18ffd340ff52ffa, 0xe491e9ccbbde5400, 0x3a8b54c156ce6828,
			0xa857f18d580b4c98, 0xbc27291d640b751b, 0x45b3f07bd511a58},
		{12, 6}: {0x265527efeeb0d4cc, 0x1625027b4d62d132, 0xc007764387751cff, 0x472971d5feca035b,
			0x63fb338339af9ce5, 0xb1eafc384ef40cf4, 0x4e4eddda2ebc2732},
		{12, 10}: {0xf292f7899cff896e, 0x3935ad7beca51782, 0x79d2cf8c5eda8c1a, 0xf885c75d5faedb96,
			0x632d13b2180f5bce, 0x5da94440f190a31d, 0xcebd645feb8c15f9},
	},
	"avx2":   mdsGoldenVector,
	"avx512": mdsGoldenVector,
}

// mdsGoldenVector is the avx2 and avx512 row: both backends' Axpy and
// mat-vec tiles round alike on these shapes.
var mdsGoldenVector = map[[2]int][7]uint64{
	{4, 2}: {0x539c8aeccf336164, 0xaf952349fb6d4c5c, 0x123a1bb9b687ca9e, 0x1332971c72b0a427,
		0xcb042555bbabef6f, 0xcc850680742fa8, 0x438389a0d95170e4},
	{10, 7}: {0xa5f155534af5d0c4, 0xe46bc37f6de36e7f, 0x535b6ca96896729e, 0x99b15e04fad6ec6d,
		0xe5eb5ba2b1b7950e, 0x17f8078d989c4a59, 0xa1f5de03626eebda},
	{12, 6}: {0xd189385c82784aeb, 0x9a81adca606d9bf3, 0x919a13069eb12529, 0x94dae01e0b671996,
		0xa8d2153061093752, 0x685ce617d8a61cfe, 0xc95aaa11204e96fe},
	{12, 10}: {0x2a8f968e306226df, 0xec0923690d95b17b, 0xdb254ecf545ff07f, 0xcc17920ef4f946c4,
		0x9d30e88671ec0930, 0x79d4b50dc0c526dd, 0x42c11aaafb57fdd9},
}

var mdsGoldenCodes = [][2]int{{4, 2}, {10, 7}, {12, 6}, {12, 10}}

// TestMDSDecodeGolden pins every bit of the float64 encode and band-wise
// decode, on every kernel backend this CPU runs, to mdsGolden.
func TestMDSDecodeGolden(t *testing.T) {
	prev := kernel.ActiveBackend()
	defer kernel.SetBackend(prev) //nolint:errcheck
	for _, backend := range kernel.Backends() {
		want, ok := mdsGolden[backend]
		if !ok {
			t.Logf("no golden for kernel backend %s", backend)
			continue
		}
		if err := kernel.SetBackend(backend); err != nil {
			t.Fatal(err)
		}
		for _, nk := range mdsGoldenCodes {
			got := mdsGoldenHashes(t, nk[0], nk[1])
			t.Logf("%s %v: %#x", backend, nk, got)
			if got != want[nk] {
				t.Errorf("%s (%d,%d): hashes %#x, want %#x", backend, nk[0], nk[1], got, want[nk])
			}
		}
	}
}

func mdsGoldenHashes(t *testing.T, n, k int) [7]uint64 {
	rng := rand.New(rand.NewSource(int64(100*n + k)))
	rows, cols := 11*k-1, 9 // rows % k != 0: the last block is padded
	code, err := NewMDSCode(n, k)
	if err != nil {
		t.Fatal(err)
	}
	enc := code.Encode(mat.Rand(rows, cols, rng))
	var out [7]uint64
	parity := fnv.New64a()
	hashBits(parity, enc.Parts[k:])
	enc = code.EncodeInto(mat.Rand(rows, cols, rng), enc)
	hashBits(parity, enc.Parts[k:])
	out[0] = parity.Sum64()
	br := enc.BlockRows
	// Worker w skips one row segment of its own in the mixed sets, so
	// every row is covered by n−1 workers; arrival runs parity-first, so
	// each segment decodes from a different mix.
	seg := (br + n - 1) / n
	sets := []func(w int) ([]Range, bool){
		func(w int) ([]Range, bool) { return []Range{{0, br}}, w < k },
		func(w int) ([]Range, bool) { return []Range{{0, br}}, w >= n-k },
		func(w int) ([]Range, bool) {
			lo, hi := min(w*seg, br), min((w+1)*seg, br)
			return []Range{{0, lo}, {hi, br}}, true
		},
	}
	ws := enc.NewDecodeWorkspace()
	for i, width := range []int{1, 4} {
		xs := make([]float64, width*cols)
		for j := range xs {
			xs[j] = rng.Float64()*2 - 1
		}
		for j, set := range sets {
			var partials []*Partial
			for w := n - 1; w >= 0; w-- {
				ranges, ok := set(w)
				if !ok {
					continue
				}
				if width == 1 {
					partials = append(partials, enc.WorkerCompute(w, xs, ranges))
				} else {
					partials = append(partials, enc.WorkerComputeBatchInto(w, xs, width, ranges, nil))
				}
			}
			dst := make([]float64, rows*width)
			if _, err := enc.DecodeMatVecInto(dst, partials, ws); err != nil {
				t.Fatalf("(%d,%d) width %d set %d: %v", n, k, width, j, err)
			}
			h := fnv.New64a()
			hashBits(h, []*mat.Dense{mat.NewFromData(rows, width, dst)})
			out[1+3*i+j] = h.Sum64()
		}
	}
	return out
}

func hashBits(h interface{ Write([]byte) (int, error) }, parts []*mat.Dense) {
	var b [8]byte
	for _, p := range parts {
		for _, v := range p.Data() {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
}
