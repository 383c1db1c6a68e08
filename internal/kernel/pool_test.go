package kernel

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestPoolMatVecMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	p := NewPool(4)
	for _, rows := range []int{0, 1, 3, 64, 257, 1000} {
		cols := 65
		a, x := randSlice(rows*cols, rng), randSlice(cols, rng)
		want := make([]float64, rows)
		MatVec(want, a, rows, cols, x)
		got := make([]float64, rows)
		p.MatVec(got, a, rows, cols, x, 0)
		if maxAbsDiff(got, want) > 1e-12 {
			t.Fatalf("rows=%d: pool MatVec mismatch", rows)
		}
	}
}

func TestPoolMatVecFanLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := NewPool(8)
	rows, cols := 500, 100
	a, x := randSlice(rows*cols, rng), randSlice(cols, rng)
	want := make([]float64, rows)
	MatVec(want, a, rows, cols, x)
	for _, fan := range []int{1, 2, 100} {
		got := make([]float64, rows)
		p.MatVec(got, a, rows, cols, x, fan)
		if maxAbsDiff(got, want) > 1e-12 {
			t.Fatalf("fan=%d: mismatch", fan)
		}
	}
}

func TestPoolMatMulMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	p := NewPool(3)
	for _, s := range [][3]int{{1, 1, 1}, {5, 7, 3}, {100, 64, 50}, {129, 65, 127}} {
		m, k, n := s[0], s[1], s[2]
		a, b := randSlice(m*k, rng), randSlice(k*n, rng)
		want := make([]float64, m*n)
		MatMul(want, a, m, k, b, n)
		got := make([]float64, m*n)
		p.MatMul(got, a, m, k, b, n, 0)
		if maxAbsDiff(got, want) > 1e-10 {
			t.Fatalf("%v: pool MatMul mismatch", s)
		}
	}
}

func TestPoolForCoversRange(t *testing.T) {
	p := NewPool(4)
	for _, total := range []int{0, 1, 7, 100, 1023} {
		var mu sync.Mutex
		seen := make([]bool, total)
		p.For(total, 8, func(lo, hi int) {
			mu.Lock()
			defer mu.Unlock()
			for i := lo; i < hi; i++ {
				if seen[i] {
					panic("row visited twice")
				}
				seen[i] = true
			}
		})
		for i, ok := range seen {
			if !ok {
				t.Fatalf("total=%d: row %d never visited", total, i)
			}
		}
	}
}

func TestPoolConcurrentNestedDispatchDoesNotDeadlock(t *testing.T) {
	// Regression: with a pool of 2, two goroutines each dispatching a job
	// whose chunks dispatch again used to park every worker in a nested
	// completion wait that only another parked worker could satisfy. The
	// help-first wait must drain those inner jobs instead of blocking.
	p := NewPool(2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for iter := 0; iter < 50; iter++ {
					p.For(2, 1, func(lo, hi int) {
						for i := lo; i < hi; i++ {
							p.For(4, 1, func(int, int) {})
						}
					})
				}
			}()
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent nested dispatch deadlocked")
	}
}

func TestPoolNestedDispatchDoesNotDeadlock(t *testing.T) {
	p := NewPool(2)
	rng := rand.New(rand.NewSource(13))
	rows, cols := 300, 80
	a, x := randSlice(rows*cols, rng), randSlice(cols, rng)
	want := make([]float64, rows)
	MatVec(want, a, rows, cols, x)
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.For(4, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				got := make([]float64, rows)
				p.MatVec(got, a, rows, cols, x, 0) // nested: must not deadlock
				if maxAbsDiff(got, want) > 1e-12 {
					panic("nested MatVec mismatch")
				}
			}
		})
	}()
	<-done
}

func TestPoolDispatchZeroAllocSteadyState(t *testing.T) {
	p := NewPool(2)
	rng := rand.New(rand.NewSource(14))
	rows, cols := 512, 64
	a, x := randSlice(rows*cols, rng), randSlice(cols, rng)
	dst := make([]float64, rows)
	// Warm the job pool.
	for i := 0; i < 8; i++ {
		p.MatVec(dst, a, rows, cols, x, 0)
	}
	allocs := testing.AllocsPerRun(100, func() {
		p.MatVec(dst, a, rows, cols, x, 0)
	})
	if allocs != 0 {
		t.Fatalf("pooled MatVec allocates %v/op in steady state, want 0", allocs)
	}
}

func TestPoolCloseStopsWorkers(t *testing.T) {
	p := NewPool(3)
	rng := rand.New(rand.NewSource(15))
	rows, cols := 200, 90
	a, x := randSlice(rows*cols, rng), randSlice(cols, rng)
	dst := make([]float64, rows)
	p.MatVec(dst, a, rows, cols, x, 0)
	before := runtime.NumGoroutine()
	p.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before-3 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before-3 {
		t.Fatalf("worker goroutines did not exit after Close: %d -> %d", before, got)
	}
}

func TestWorkspaceBufReuse(t *testing.T) {
	b := GetBuf(100)
	if len(b.F) != 100 {
		t.Fatalf("len=%d", len(b.F))
	}
	b.F[0] = 42
	b.Put()
	c := GetBuf(100)
	if len(c.F) != 100 {
		t.Fatalf("reused len=%d", len(c.F))
	}
	c.Put()
	// Oversize requests fall through to plain allocation but still work.
	big := GetBuf(1<<maxClass + 1)
	if len(big.F) != 1<<maxClass+1 {
		t.Fatal("oversize GetBuf wrong length")
	}
	big.Put()
}

func TestGrowHelpers(t *testing.T) {
	s := Grow(nil, 10)
	if len(s) != 10 {
		t.Fatalf("Grow(nil) len=%d", len(s))
	}
	s[3] = 7
	s2 := Grow(s[:0], 5)
	if &s2[0] != &s[0] {
		t.Fatal("Grow reallocated despite sufficient capacity")
	}
	z := GrowZeroed(s, 10)
	if z[3] != 0 {
		t.Fatal("GrowZeroed left dirty data")
	}
	ints := GrowInts(nil, 4)
	ints = GrowInts(ints, 2)
	if len(ints) != 2 {
		t.Fatal("GrowInts wrong length")
	}
}
