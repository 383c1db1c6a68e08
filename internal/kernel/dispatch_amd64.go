//go:build amd64 && !noasm

package kernel

// archBackends reports the vector backends this CPU can run, best last
// (init picks the final entry). Every registration sits inside its own
// cpuHas* feature guard — the backendpair analyzer enforces that shape, so
// a backend can never be registered on hardware that cannot execute it.
// The AVX2 backend needs AVX2+FMA and OS-enabled YMM state; the AVX-512
// backend additionally needs AVX512F/DQ/BW/VL and OS-enabled
// OPMASK/ZMM/Hi16-ZMM state. AVX512-IFMA is not required: it only selects
// the route of the avx512 GF batch sweep (cpuHasIFMA, read once at init
// into gfTileIFMA), and without it that sweep takes the pack-free kernel.
func archBackends() []*backendImpl {
	var out []*backendImpl
	if cpuHasAVX2FMA() {
		out = append(out, avx2Backend)
	}
	if cpuHasAVX512() {
		out = append(out, avx512Backend)
	}
	return out
}
