package kernel

// Exec names the execution resources a component runs its parallel loops
// on: which worker pool, and how many of its participants one operation
// may fan out to. It exists for co-tenancy — several clusters, masters, or
// workers in one process can each be pinned to their own pool (or to a
// bounded share of the default one) instead of all contending for a single
// GOMAXPROCS-sized pool.
//
// The zero value selects the process-wide Default pool with full fan-out,
// which is the right choice for a single tenant. Exec is a small value
// type; copy it freely.
type Exec struct {
	// Pool is the worker pool to dispatch on; nil selects Default().
	Pool *Pool
	// MaxFan caps the participants per operation. <= 0 uses the whole
	// pool; 1 runs operations entirely on the calling goroutine.
	MaxFan int
}

// Serial returns an Exec that performs every operation on the calling
// goroutine — no pool dispatch at all.
func Serial() Exec { return Exec{MaxFan: 1} }

func (e Exec) pool() *Pool {
	if e.Pool != nil {
		return e.Pool
	}
	return Default()
}

// Workers reports how many participants an operation on this Exec may use.
func (e Exec) Workers() int {
	w := e.pool().Workers()
	if e.MaxFan > 0 && e.MaxFan < w {
		return e.MaxFan
	}
	return w
}

// For runs fn over [0, total) in parallel chunks of at least minChunk
// rows, subject to the Exec's pool and fan-out cap.
func (e Exec) For(total, minChunk int, fn func(lo, hi int)) {
	e.pool().ForMax(total, minChunk, e.MaxFan, fn)
}
