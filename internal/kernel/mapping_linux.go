//go:build linux

package kernel

import (
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

// hugePageSize is the kernel's transparent-huge-page size, read once from
// sysfs, or 0 when sysfs does not say; Map then maps nothing.
var hugePageSize = sync.OnceValue(func() uintptr {
	b, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/hpage_pmd_size")
	if err != nil {
		return 0
	}
	n, err := strconv.ParseUint(strings.TrimSpace(string(b)), 10, 64)
	if err != nil || n == 0 || n&(n-1) != 0 || uint64(uintptr(n)) != n {
		return 0
	}
	return uintptr(n)
})

// adviseHuge is false under GODEBUG=disablethp=1, the runtime's opt-out
// of transparent huge pages.
var adviseHuge = sync.OnceValue(func() bool { return !thpDisabled(os.Getenv("GODEBUG")) })

// thpDisabled reports whether a GODEBUG value sets disablethp to a non-zero
// integer. As in the runtime, the last setting wins and one that does not
// parse is ignored.
func thpDisabled(godebug string) bool {
	off := false
	for _, kv := range strings.Split(godebug, ",") {
		if v, ok := strings.CutPrefix(kv, "disablethp="); ok {
			if n, err := strconv.Atoi(v); err == nil {
				off = n != 0
			}
		}
	}
	return off
}

// mapHuge returns an anonymous private mapping for size bytes of at least
// one huge page, or nil. Its length is rounded up to whole huge pages, so
// the kernel places it on a huge-page boundary, and the advice covers the
// whole huge pages of size: a partial one at the tail would fault in whole.
// The THP mode decides what the advice gives: huge pages under "madvise"
// and "always", nothing under "never".
func mapHuge(size uintptr) []byte {
	page := hugePageSize()
	if page == 0 || size < page {
		return nil
	}
	mem, err := syscall.Mmap(-1, 0, int((size+page-1)&^(page-1)),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANONYMOUS)
	if err != nil {
		return nil // out of address space or mappings: the heap may serve
	}
	if adviseHuge() {
		_ = syscall.Madvise(mem[:size&^(page-1)], syscall.MADV_HUGEPAGE) // advice only
	}
	mappedBytes.Add(int64(len(mem)))
	return mem
}
