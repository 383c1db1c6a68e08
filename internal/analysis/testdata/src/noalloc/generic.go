package noalloc

// Generic code is walked like any other: an explicit instantiation is a
// static call, and a method called on a type parameter is followed into
// that method of every type argument the parameter is instantiated with —
// directly, or through a generic caller passing its own parameter along.

//s2c2:noalloc
func viaExplicit(n int) []int {
	return explicitly[int](n)
}

func explicitly[T any](n int) []T {
	return make([]T, n) // want `make allocates \(in explicitly, reached from //s2c2:noalloc viaExplicit\)`
}

type filler interface{ fill(n int) []byte }

type heapFiller struct{}

func (heapFiller) fill(n int) []byte {
	return make([]byte, n) // want `make allocates \(in \(heapFiller\).fill, reached from //s2c2:noalloc viaTypeParam\)`
}

type stackFiller struct{}

func (stackFiller) fill(n int) []byte {
	var b [8]byte
	_ = b[:n]
	return nil
}

func fillWith[F filler](f F, n int) []byte {
	return f.fill(n)
}

//s2c2:noalloc
func viaTypeParam(n int) []byte {
	_ = fillWith(stackFiller{}, n)
	return fillWith(heapFiller{}, n)
}

type poolFiller struct{}

func (poolFiller) fill(n int) []byte {
	return append([]byte(nil), make([]byte, n)...) // want `append may grow` `make allocates \(in \(poolFiller\).fill, reached from //s2c2:noalloc viaGenericType\)`
}

// holder carries its filler as a type parameter of a generic type; its
// method calls through the receiver's parameter.
type holder[F filler] struct{ f F }

func (h *holder[F]) take(n int) []byte { return forward[F](h.f, n) }

func forward[F filler](f F, n int) []byte { return f.fill(n) }

//s2c2:noalloc
func viaGenericType(h *holder[poolFiller], n int) []byte {
	return h.take(n)
}
