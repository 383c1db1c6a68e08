//go:build linux

package kernel

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

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

// TestMapHugePageEligible checks in /proc/self/smaps that the kernel took
// Map's advice: a 16 MiB Map is one mapping, THP-eligible, and in madvise
// mode the heap storage under a 1 MiB one is not.
func TestMapHugePageEligible(t *testing.T) {
	mode := thpMode(t)
	if mode == "never" {
		t.Skip("transparent huge pages are off (mode never): nothing to advise")
	}
	if thpDisabled(os.Getenv("GODEBUG")) {
		t.Skip("GODEBUG=disablethp=1: Map advises nothing")
	}
	if page := hugePageSize(); page == 0 || page > 8<<20 {
		t.Skipf("huge page size %d: a 16 MiB Map need not cover one", page)
	}
	small := Map[float64](1 << 20 / 8)
	f64 := Map[float64](16 << 20 / 8)
	u32 := Map[uint32](16 << 20 / 4)
	defer small.Release()
	defer f64.Release()
	defer u32.Release()
	for _, c := range []struct {
		name string
		data uintptr
		n    int
		want string
	}{
		{"16 MiB Map[float64]", uintptr(unsafe.Pointer(unsafe.SliceData(f64.Data()))), len(f64.Data()) * 8, "1"},
		{"16 MiB Map[uint32]", uintptr(unsafe.Pointer(unsafe.SliceData(u32.Data()))), len(u32.Data()) * 4, "1"},
		{"1 MiB Map[float64]", uintptr(unsafe.Pointer(unsafe.SliceData(small.Data()))), len(small.Data()) * 8, "0"},
	} {
		if c.want == "0" && mode != "madvise" {
			continue // "always" makes every anonymous mapping eligible
		}
		if got := thpEligible(t, c.data+uintptr(c.n)/2); got != c.want {
			t.Errorf("%s: THPeligible %s, want %s", c.name, got, c.want)
		}
	}
}

// TestMapReleases: storage from one huge page up is mapped, zeroed and
// counted until its last reference goes; smaller storage is heap.
func TestMapReleases(t *testing.T) {
	page := hugePageSize()
	if page == 0 {
		t.Skip("no transparent huge page size in sysfs: Map maps nothing")
	}
	base := MappedBytes()
	small := Map[float64](int(page/8) - 1)
	if MappedBytes() != base {
		t.Fatalf("a Map below one huge page mapped %d bytes", MappedBytes()-base)
	}
	small.Release()
	m := Map[uint32](int(page/4) + 1) // one element past a huge page
	if got := MappedBytes() - base; got != int64(2*page) {
		t.Fatalf("Map of a huge page plus 4 bytes maps %d bytes, want %d", got, 2*page)
	}
	for i, v := range m.Data() {
		if v != 0 {
			t.Fatalf("element %d of fresh storage is %d", i, v)
		}
	}
	m.Data()[len(m.Data())-1] = 7
	m.Retain()
	m.Release()
	if MappedBytes() == base {
		t.Fatal("a Release while another reference is held freed the storage")
	}
	m.Release()
	if got := MappedBytes(); got != base {
		t.Fatalf("after the last Release %d bytes stay mapped", got-base)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a Release past the last reference did not panic")
		}
	}()
	m.Release()
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
