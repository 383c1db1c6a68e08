//go:build !linux

package kernel

// Alloc returns make([]T, n). Only Linux has transparent huge pages for it
// to advise (see the Linux build).
func Alloc[T any](n int) []T { return make([]T, n) }
