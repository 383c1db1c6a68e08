//go:build linux && !releasefault

package kernel

import "syscall"

func unmap(mem []byte) error { return syscall.Munmap(mem) }
