//go:build linux && releasefault

package kernel

import (
	"errors"
	"syscall"
)

// unmap, in a test build with the releasefault tag, frees the pages but
// leaves the range PROT_NONE, so a stale view faults at once instead of
// reading whatever is mapped there next.
func unmap(mem []byte) error {
	return errors.Join(syscall.Madvise(mem, syscall.MADV_DONTNEED), syscall.Mprotect(mem, syscall.PROT_NONE))
}
