//go:build amd64 && !noasm

package kernel

// Hand-rolled CPUID feature detection (the module is dependency-free, so
// no golang.org/x/sys/cpu). Detection runs once during package variable
// initialization; see archBackends.

// cpuid executes the CPUID instruction with the given leaf/subleaf.
// Feature detection, not a dispatched kernel.
//
//s2c2:waive backendpair
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0 (requires OSXSAVE, checked by the caller).
// Feature detection, not a dispatched kernel.
//
//s2c2:waive backendpair
func xgetbv() (eax, edx uint32)

// cpuHasAVX2FMA reports whether the CPU and OS support the AVX2 backend:
// AVX2 + FMA instruction sets, and XMM/YMM register state enabled by the
// OS (XCR0 bits 1 and 2).
func cpuHasAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const (
		fmaBit     = 1 << 12 // leaf 1 ECX
		osxsaveBit = 1 << 27 // leaf 1 ECX
		avxBit     = 1 << 28 // leaf 1 ECX
		avx2Bit    = 1 << 5  // leaf 7 EBX
		ymmState   = 0x6     // XCR0: XMM (bit 1) + YMM (bit 2)
	)
	_, _, c1, _ := cpuid(1, 0)
	if c1&osxsaveBit == 0 || c1&avxBit == 0 || c1&fmaBit == 0 {
		return false
	}
	if lo, _ := xgetbv(); lo&ymmState != ymmState {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	return b7&avx2Bit != 0
}

// cpuHasAVX512 reports whether the CPU and OS support the AVX-512 backend:
// the AVX512F/DQ/BW/VL instruction subsets (leaf 7 EBX), plus OPMASK, ZMM
// and Hi16-ZMM register state enabled by the OS (XCR0 bits 5–7, on top of
// the XMM/YMM bits). The FMA/OSXSAVE base is rechecked via cpuHasAVX2FMA
// so a backend never registers on a CPU that could not also run avx2.
func cpuHasAVX512() bool {
	if !cpuHasAVX2FMA() {
		return false
	}
	const (
		avx512fBit  = 1 << 16 // leaf 7 EBX
		avx512dqBit = 1 << 17 // leaf 7 EBX
		avx512bwBit = 1 << 30 // leaf 7 EBX
		avx512vlBit = 1 << 31 // leaf 7 EBX
		need        = avx512fBit | avx512dqBit | avx512bwBit | avx512vlBit

		// XCR0: XMM (1) + YMM (2) + OPMASK (5) + ZMM_Hi256 (6) + Hi16_ZMM (7)
		zmmState = 0xE6
	)
	_, b7, _, _ := cpuid(7, 0)
	if b7&need != need {
		return false
	}
	lo, _ := xgetbv()
	return lo&zmmState == zmmState
}

// cpuHasIFMA reports whether the AVX-512 backend's GF batch sweep can run
// its IFMA tile: the AVX512_IFMA subset (leaf 7 EBX bit 21,
// VPMADD52LUQ/VPMADD52HUQ) on top of everything cpuHasAVX512 requires.
func cpuHasIFMA() bool {
	if !cpuHasAVX512() {
		return false
	}
	const avx512ifmaBit = 1 << 21 // leaf 7 EBX
	_, b7, _, _ := cpuid(7, 0)
	return b7&avx512ifmaBit != 0
}
