//go:build !linux

package kernel

// Only the Linux build maps partitions: here Map is a make.
func mapHuge(uintptr) []byte { return nil }
func unmap([]byte) error     { return nil }
