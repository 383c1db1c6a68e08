//go:build amd64 && !noasm

package kernel

// forEachGFTileRoute runs fn once per GF batch-sweep route the named
// backend can take on this CPU: the dispatched route (suffix ""), and on
// avx512 with IFMA also the pack-free route an AVX-512 CPU without IFMA
// takes, forced by clearing gfTileIFMA (suffix "-dot4").
func forEachGFTileRoute(backend string, fn func(suffix string)) {
	fn("")
	if backend != "avx512" || !gfTileIFMA {
		return
	}
	gfTileIFMA = false
	defer func() { gfTileIFMA = true }()
	fn("-dot4")
}

// gfTileRouteNote says which route the avx512 GF batch sweep dispatches.
func gfTileRouteNote() string {
	switch {
	case !cpuHasAVX512():
		return "no avx512 backend on this CPU"
	case gfTileIFMA:
		return "IFMA tile (gfTile8IFMA)"
	default:
		return "pack-free dot4 (CPU lacks AVX512-IFMA)"
	}
}
