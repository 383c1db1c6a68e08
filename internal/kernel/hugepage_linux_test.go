//go:build linux

package kernel

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

func TestHugeRange(t *testing.T) {
	const page = 2 << 20
	top := ^uintptr(0) // the last address of whichever word size runs this
	cases := []struct {
		name             string
		addr, bytes      uintptr
		wantLo, wantSize uintptr
	}{
		{"unaligned start", 0x10_0010, 5 * page, 0x20_0000, 4 * page},
		{"exact multiple", 4 * page, 3 * page, 4 * page, 3 * page},
		{"less than one page", 0x20_0000, page - 1, 0, 0},
		{"unaligned, no whole page", 0x30_0000, page + page/4, 0, 0},
		{"zero length", 0x20_0000, 0, 0, 0},
		{"zero length, unaligned", 0x20_0001, 0, 0, 0},
		{"ends on a page boundary", 0x10_0000, 0x10_0000 + 2*page, 0x20_0000, 2 * page},
		// Ends at the very top of the address space: addr+bytes and hi
		// wrap to 0, the length must not.
		{"ends at the top", top - 3*page - 0x1000 + 1, 3*page + 0x1000, top - 3*page + 1, 3 * page},
		{"tail past the last page", top - 2*page - 0x1000 + 1, 2*page + 0x800, top - 2*page + 1, page},
	}
	for _, c := range cases {
		lo, hi := hugeRange(c.addr, c.bytes, page)
		if hi == lo {
			lo = 0 // an empty range's position is unspecified
		}
		if lo != c.wantLo || hi-lo != c.wantSize {
			t.Errorf("%s: hugeRange(%#x, %#x) = [%#x, +%#x), want [%#x, +%#x)",
				c.name, c.addr, c.bytes, lo, hi-lo, c.wantLo, c.wantSize)
		}
		if hi != lo && (lo&(page-1) != 0 || lo-c.addr > c.bytes || hi-c.addr > c.bytes) {
			t.Errorf("%s: [%#x, %#x) is not aligned inside [%#x, +%#x)", c.name, lo, hi, c.addr, c.bytes)
		}
	}
}

func TestThpDisabled(t *testing.T) {
	for godebug, want := range map[string]bool{
		"":                              false,
		"disablethp=1":                  true,
		"disablethp=0":                  false,
		"madvdontneed=1,disablethp=1":   true,
		"disablethp=1,disablethp=0":     false,
		"disablethp=1,disablethp=bogus": true,
		"xdisablethp=1":                 false,
	} {
		if got := thpDisabled(godebug); got != want {
			t.Errorf("thpDisabled(%q) = %v, want %v", godebug, got, want)
		}
	}
}

// TestAllocHugePageEligible checks in /proc/self/smaps that the kernel
// took Alloc's advice: the mapping under a 16 MiB slice is THP-eligible,
// and in madvise mode the one under a 1 MiB slice is not.
func TestAllocHugePageEligible(t *testing.T) {
	mode := thpMode(t)
	if mode == "never" {
		t.Skip("transparent huge pages are off (mode never): nothing to advise")
	}
	if thpDisabled(os.Getenv("GODEBUG")) {
		t.Skip("GODEBUG=disablethp=1: Alloc advises nothing")
	}
	if page := hugePageSize(); page == 0 || page > 8<<20 {
		t.Skipf("huge page size %d: a 16 MiB slice need not cover one", page)
	}
	// The small slice goes first, so it cannot reuse a range that a big
	// one advised.
	small := Alloc[float64](1 << 20 / 8)
	f64 := Alloc[float64](16 << 20 / 8)
	u32 := Alloc[uint32](16 << 20 / 4)
	// The middle of a 16 MiB slice lies inside its aligned interior.
	for _, c := range []struct {
		name string
		addr uintptr
		want string
	}{
		{"16 MiB Alloc[float64]", uintptr(unsafe.Pointer(&f64[len(f64)/2])), "1"},
		{"16 MiB Alloc[uint32]", uintptr(unsafe.Pointer(&u32[len(u32)/2])), "1"},
		{"1 MiB Alloc[float64]", uintptr(unsafe.Pointer(&small[len(small)/2])), "0"},
	} {
		if c.want == "0" && mode != "madvise" {
			continue // "always" makes every anonymous mapping eligible
		}
		if got := thpEligible(t, c.addr); got != c.want {
			t.Errorf("%s: THPeligible %s, want %s", c.name, got, c.want)
		}
	}
	runtime.KeepAlive(small)
	runtime.KeepAlive(f64)
	runtime.KeepAlive(u32)
}

// thpMode returns the bracketed mode in the sysfs THP "enabled" file.
func thpMode(t *testing.T) string {
	b, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil {
		t.Skipf("no THP mode to read: %v", err)
	}
	s := string(b)
	i, j := strings.IndexByte(s, '['), strings.IndexByte(s, ']')
	if i < 0 || j < i {
		t.Skipf("unrecognised THP mode %q", s)
	}
	return s[i+1 : j]
}

// thpEligible returns the THPeligible field of the /proc/self/smaps mapping
// that holds addr.
func thpEligible(t *testing.T, addr uintptr) string {
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Skipf("no smaps: %v", err)
	}
	defer f.Close()
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if start, end, ok := mappingRange(line); ok {
			in = start <= addr && addr < end
			continue
		}
		if v, ok := strings.CutPrefix(line, "THPeligible:"); ok && in {
			return strings.TrimSpace(v)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading smaps: %v", err)
	}
	t.Skipf("smaps has no THPeligible field for the mapping at %#x", addr)
	return ""
}

// mappingRange parses an smaps mapping header, "start-end perms ...".
func mappingRange(line string) (start, end uintptr, ok bool) {
	rng, _, found := strings.Cut(line, " ")
	lo, hi, dash := strings.Cut(rng, "-")
	if !found || !dash {
		return 0, 0, false
	}
	s, err1 := strconv.ParseUint(lo, 16, 64)
	e, err2 := strconv.ParseUint(hi, 16, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, false
	}
	return uintptr(s), uintptr(e), true
}
