package core

// vectorDiag is the AVX2 diagonal kernel when the CPU and the operating
// system support AVX2, and nil otherwise.
var vectorDiag diagFunc = func() diagFunc {
	if hasAVX2() {
		return diagAVX2
	}
	return nil
}()

// diagAVX2 is the diagFunc of startp_amd64.s: four cells per instruction
// with unaligned loads, then a scalar tail, with each add grouped as in
// diagGo and the max taken last.
//
//go:noescape
func diagAVX2(dst, prev, tE, sE, tS, rN []float64, w float64)

// cpuid executes CPUID with EAX = eaxArg and ECX = ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv executes XGETBV with ECX = 0, reading XCR0.
func xgetbv() (eax, edx uint32)

// hasAVX2 follows the x/sys/cpu recipe: CPUID leaf 7 must exist; leaf 1
// must report OSXSAVE and AVX; XCR0 must show that the operating system
// saves the XMM and YMM registers; and leaf 7 must report AVX2.
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&(osxsave|avx) != osxsave|avx {
		return false // XGETBV faults without OSXSAVE
	}
	const xmm, ymm = 1 << 1, 1 << 2
	xcr0, _ := xgetbv()
	_, ebx7, _, _ := cpuid(7, 0)
	return xcr0&(xmm|ymm) == xmm|ymm && ebx7&(1<<5) != 0
}
