package sim

import (
	"fmt"
	"slices"
	"sync"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/kernel"
	"github.com/coded-computing/s2c2/internal/mat"
)

// maxRecycledBytes bounds the encode storage (parity plus zero-padded
// tail blocks) that the idle list keeps between jobs: at most 4 MiB in
// the worst case, whatever the shapes. An encoding larger than the bound
// is never kept, and releasing one past it evicts the least recently
// released first.
const maxRecycledBytes = 4 << 20

// encKey is the shape an idle encoding can be re-encoded at without
// allocating.
type encKey struct{ n, k, rows, cols int }

// encoding is one (n,k) code with the encoding it owns; a job holds it
// from takeEncoding to release.
type encoding struct {
	key   encKey
	code  *coding.MDSCode
	enc   *coding.EncodedMatrix
	bytes int
}

// idleEncodings is the process-wide idle list, least recently released
// first. An entry is on the list or held by one job, never both, so
// concurrent jobs never share storage.
var idleEncodings struct {
	sync.Mutex
	list  []encoding
	bytes int
}

// encodingShape is what a timing-only round reads of m's (n,k) encoding:
// its rows, columns and partition height, with no partitions.
func encodingShape(n, k int, m *mat.Dense) (*coding.EncodedMatrix, error) {
	if k < 1 || k > n {
		return nil, fmt.Errorf("sim: invalid MDS parameters n=%d k=%d", n, k)
	}
	rows, cols := m.Dims()
	return &coding.EncodedMatrix{OrigRows: rows, Cols: cols, BlockRows: (rows + k - 1) / k}, nil
}

// takeEncoding returns m encoded by an (n,k) code that runs its encode on
// exec. When an idle encoding of m's shape exists, m is re-encoded into
// its storage (the parity bits are those of a fresh encode); otherwise a
// fresh one is built. The caller releases it when its job ends.
func takeEncoding(n, k int, m *mat.Dense, exec kernel.Exec) (*encoding, error) {
	rows, cols := m.Dims()
	key := encKey{n, k, rows, cols}
	idle := &idleEncodings
	idle.Lock()
	var e encoding
	for i := len(idle.list) - 1; i >= 0; i-- {
		if idle.list[i].key == key {
			e = idle.list[i]
			idle.list = slices.Delete(idle.list, i, i+1)
			idle.bytes -= e.bytes
			break
		}
	}
	idle.Unlock()
	if e.code == nil {
		code, err := coding.NewMDSCode(n, k)
		if err != nil {
			return nil, err
		}
		blockRows := (rows + k - 1) / k
		// n − k parity blocks plus the tail blocks that need zero padding.
		e = encoding{key: key, code: code, bytes: 8 * (n - rows/max(blockRows, 1)) * blockRows * cols}
	}
	e.code.SetExec(exec)
	e.enc = e.code.EncodeInto(m, e.enc)
	return &e, nil
}

// release puts e back on the idle list. Its systematic views and its
// exec are dropped first, so an idle entry pins neither the caller's
// matrix nor its pool.
func (e *encoding) release() {
	if e.bytes > maxRecycledBytes {
		return
	}
	clear(e.enc.Parts[:e.key.k])
	e.code.SetExec(kernel.Exec{})
	idle := &idleEncodings
	idle.Lock()
	defer idle.Unlock()
	idle.list = append(idle.list, *e)
	idle.bytes += e.bytes
	drop := 0
	for idle.bytes > maxRecycledBytes {
		idle.bytes -= idle.list[drop].bytes
		drop++
	}
	idle.list = slices.Delete(idle.list, 0, drop)
}
