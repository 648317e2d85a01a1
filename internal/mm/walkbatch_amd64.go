package mm

// hasAVX2 reports whether the CPU has AVX2 and the operating system saves
// the YMM registers. It reads CPUID leaf 1 (OSXSAVE and AVX), XCR0 (XMM and YMM state
// enabled) and CPUID leaf 7 (AVX2).
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xgetbv()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// stepsAVX2 advances four walks of up to eight lanes by n pages:
// credit[j][i] is lane j's credit in walk i, w[j][i] its weight, and
// count[j][i] gains the pages lane j wins in walk i. Padded lanes and
// empty walks hold credit −Inf and weight 0.
//
//go:noescape
func stepsAVX2(credit *[8][4]float64, count *[8][4]int64, w *[8][4]float64, n int)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)
