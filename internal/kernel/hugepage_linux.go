//go:build linux

package kernel

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"unsafe"
)

// minHugePage is the smallest transparent-huge-page size of any Linux port
// (s390x's 1 MiB segment). A smaller slice cannot cover a huge page, so
// Alloc returns it without looking the real size up.
const minHugePage = 1 << 20

// hugePageSize is the kernel's transparent-huge-page size, read once from
// sysfs on the first Alloc big enough to need it. It is 0, and Alloc never
// advises, when sysfs does not say or GODEBUG=disablethp=1 opts the process
// out of THP (the runtime then marks its heap MADV_NOHUGEPAGE, which advice
// from Alloc would undo).
var hugePageSize = sync.OnceValue(func() uintptr {
	if thpDisabled(os.Getenv("GODEBUG")) {
		return 0
	}
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

// Alloc returns a zeroed slice of n elements, as make([]T, n) does. When
// its storage covers at least one whole, aligned transparent huge page,
// Alloc advises the kernel (madvise MADV_HUGEPAGE) to back that aligned
// interior with huge pages, so the first touch of each one — a socket read
// landing a partition, an encode writing parity — faults once per huge page
// (2 MiB on x86-64) instead of once per base page. make does not touch
// memory fresh from the OS; it zeroes a reused range, and one advised
// before is still eligible then.
//
// The kernel's THP mode decides: "madvise" and "always" give huge pages,
// "never" ignores the advice. A smaller slice makes no syscall and splits
// no mapping. The advice outlives the slice: the heap's later reuse of the
// range stays THP-eligible. Alloc may make a syscall, so it belongs in
// constructors, never on a steady-state path.
func Alloc[T any](n int) []T {
	s := make([]T, n)
	var zero T
	bytes := uintptr(n) * unsafe.Sizeof(zero)
	if bytes < minHugePage {
		return s
	}
	if page := hugePageSize(); page != 0 {
		lo, hi := hugeRange(uintptr(unsafe.Pointer(unsafe.SliceData(s))), bytes, page)
		if lo != hi {
			// Advice only: on failure (THP compiled out of the kernel) the
			// slice is what make returned.
			_, _, _ = syscall.Syscall(syscall.SYS_MADVISE, lo, hi-lo, syscall.MADV_HUGEPAGE)
		}
	}
	runtime.KeepAlive(s)
	return s
}

// hugeRange returns the whole page-aligned pages inside [addr, addr+bytes)
// as [lo, hi), or lo == hi when there are none; page is a power of two.
// The arithmetic never overflows a uintptr: hi−lo is the length even for a
// range ending at the very top of the address space, where hi wraps to 0.
func hugeRange(addr, bytes, page uintptr) (lo, hi uintptr) {
	mask := page - 1
	head := (page - addr&mask) & mask // bytes before the first boundary
	if bytes < head || bytes-head < page {
		return 0, 0
	}
	lo = addr + head
	return lo, lo + (bytes-head)&^mask
}
