//go:build !amd64 || noasm

package kernel

// forEachGFTileRoute runs fn once: without the avx512 backend there is
// one GF batch-sweep route per backend.
func forEachGFTileRoute(backend string, fn func(suffix string)) { fn("") }

// gfTileRouteNote says which route the avx512 GF batch sweep dispatches.
func gfTileRouteNote() string { return "no avx512 backend in this build" }
