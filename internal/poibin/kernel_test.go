package poibin

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// refTailDP is the pre-kernel-overhaul Tail implementation, kept verbatim as
// the bitwise oracle for the DP path.
func refTailDP(probs []float64, k int) float64 {
	n := len(probs)
	switch {
	case k <= 0:
		return 1
	case k > n:
		return 0
	}
	dist := make([]float64, k+1)
	dist[0] = 1
	hi := 0
	for _, p := range probs {
		if hi < k {
			hi++
		}
		q := 1 - p
		if hi == k {
			dist[k] += dist[k-1] * p
		}
		top := hi
		if top > k-1 {
			top = k - 1
		}
		for c := top; c >= 1; c-- {
			dist[c] = dist[c]*q + dist[c-1]*p
		}
		dist[0] *= q
	}
	if dist[k] > 1 {
		return 1
	}
	return dist[k]
}

func randProbs(rng *rand.Rand, n int, withDegenerate bool) []float64 {
	probs := make([]float64, n)
	for i := range probs {
		switch {
		case withDegenerate && rng.Intn(5) == 0:
			probs[i] = 1
		case withDegenerate && rng.Intn(7) == 0:
			probs[i] = 0
		default:
			probs[i] = rng.Float64()
		}
	}
	return probs
}

// TestTailBitwiseMatchesReference: the rewritten DP (including the p=1 shift
// fast path) must reproduce the original implementation bit for bit.
func TestTailBitwiseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(100)
		k := rng.Intn(n + 2)
		probs := randProbs(rng, n, true)
		got := Tail(probs, k)
		want := refTailDP(probs, k)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: Tail(n=%d, k=%d) = %v, reference %v (bits differ)", trial, n, k, got, want)
		}
	}
}

// TestScratchTailMatchesTail: the scratch path is the same kernel with a
// reused buffer, so it must be bit-identical to the package function —
// including on back-to-back calls where stale buffer contents could leak.
func TestScratchTailMatchesTail(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var s Scratch
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(200)
		k := rng.Intn(n + 2)
		probs := randProbs(rng, n, true)
		got := s.Tail(probs, k)
		want := Tail(probs, k)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: Scratch.Tail(n=%d, k=%d) = %v, Tail = %v", trial, n, k, got, want)
		}
	}
}

// TestForcedConvSmallInputIsDP: at or below the leaf size the convolution
// tree is a single DP leaf, so forcing KernelConv must be bit-identical to
// KernelDP. This is what makes the crosscheck representation-equivalence
// suite able to demand byte-identical mining results on its seeded shapes.
func TestForcedConvSmallInputIsDP(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var s Scratch
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(convLeafN)
		k := rng.Intn(n + 2)
		probs := randProbs(rng, n, true)
		dp := s.TailKernel(probs, k, KernelDP)
		conv := s.TailKernel(probs, k, KernelConv)
		if math.Float64bits(dp) != math.Float64bits(conv) {
			t.Fatalf("trial %d: n=%d k=%d: dp=%v conv=%v (bits differ below leaf size)", trial, n, k, dp, conv)
		}
	}
}

// TestKernelAgreementLargeN: above the leaf size the two kernels sum in
// different orders; they must still agree to tight relative tolerance.
func TestKernelAgreementLargeN(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var s Scratch
	for _, n := range []int{convLeafN + 1, 1000, 2048, ConvCrossoverN, ConvCrossoverN + 333} {
		for _, kf := range []float64{0.001, 0.1, 0.45, 0.55, 0.9} {
			k := int(float64(n) * kf)
			if k < 1 {
				k = 1
			}
			probs := randProbs(rng, n, true)
			dp := s.TailKernel(probs, k, KernelDP)
			conv := s.TailKernel(probs, k, KernelConv)
			diff := math.Abs(dp - conv)
			tol := 1e-12 + 1e-9*dp
			if diff > tol {
				t.Fatalf("n=%d k=%d: dp=%v conv=%v diff=%g > tol=%g", n, k, dp, conv, diff, tol)
			}
			if conv < 0 || conv > 1 {
				t.Fatalf("n=%d k=%d: conv tail %v outside [0,1]", n, k, conv)
			}
		}
	}
}

// TestConvDegenerateVectors covers the certain/impossible extraction edge
// cases of the convolution path.
func TestConvDegenerateVectors(t *testing.T) {
	var s Scratch
	n := convLeafN * 3
	allOnes := make([]float64, n)
	for i := range allOnes {
		allOnes[i] = 1
	}
	if got := s.TailKernel(allOnes, n, KernelConv); got != 1 {
		t.Fatalf("all-certain: Pr[S>=n] = %v, want 1", got)
	}
	if got := s.TailKernel(allOnes, n+1, KernelConv); got != 0 {
		t.Fatalf("all-certain: Pr[S>=n+1] = %v, want 0", got)
	}
	allZero := make([]float64, n)
	if got := s.TailKernel(allZero, 1, KernelConv); got != 0 {
		t.Fatalf("all-impossible: Pr[S>=1] = %v, want 0", got)
	}
	if got := s.TailKernel(allZero, 0, KernelConv); got != 1 {
		t.Fatalf("Pr[S>=0] = %v, want 1", got)
	}
	// Mixture: the certain tuples should shift the threshold, leaving the
	// rest to the tree; verify against the DP.
	rng := rand.New(rand.NewSource(19))
	mixed := make([]float64, n)
	for i := range mixed {
		switch i % 3 {
		case 0:
			mixed[i] = 1
		case 1:
			mixed[i] = 0
		default:
			mixed[i] = rng.Float64()
		}
	}
	for _, k := range []int{1, n / 3, n/3 + 5, n / 2, n} {
		dp := s.TailKernel(mixed, k, KernelDP)
		conv := s.TailKernel(mixed, k, KernelConv)
		if math.Abs(dp-conv) > 1e-12+1e-9*dp {
			t.Fatalf("mixed degenerate: k=%d dp=%v conv=%v", k, dp, conv)
		}
	}
}

// TestConvParallelDeterministic: the forks are a pure speed knob — runs on
// a fresh Scratch, on a reused one, and on one thread all give the bits of
// the serial full tree.
func TestConvParallelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := 4*ConvCrossoverN + 1234     // forks at three tree levels
	probs := randProbs(rng, n, true) // about a fifth certain, a ninth impossible
	k := n / 2
	want := math.Float64bits(refConvTail(probs, k))
	var reused Scratch
	for i := 0; i < 2; i++ {
		var fresh Scratch
		if got := math.Float64bits(fresh.TailKernel(probs, k, KernelConv)); got != want {
			t.Fatalf("run %d: fresh scratch gave %x, full tree %x", i, got, want)
		}
		if got := math.Float64bits(reused.TailKernel(probs, k, KernelConv)); got != want {
			t.Fatalf("run %d: reused scratch gave %x, full tree %x", i, got, want)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if got := math.Float64bits(reused.TailKernel(probs, k, KernelConv)); got != want {
		t.Fatalf("GOMAXPROCS=1 gave %x, full tree %x", got, want)
	}
}

// TestScratchTailAllocFree: after warm-up, Scratch.Tail must not allocate on
// the DP path — this is the contract the miner's allocs/op budget rests on.
func TestScratchTailAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	probs := randProbs(rng, 600, false)
	var s Scratch
	k := 240
	s.Tail(probs, k) // warm the buffer
	allocs := testing.AllocsPerRun(100, func() {
		s.Tail(probs, k)
	})
	if allocs != 0 {
		t.Fatalf("Scratch.Tail allocated %v times per run, want 0", allocs)
	}
}

// TestScratchConvAllocSteadyState: the convolution path may allocate while
// growing its freelists but must reach a steady state that allocates no
// float vector, forks included: each fork's Scratch lives in its parent's.
// Starting a goroutine costs a few small allocations, so the check is on
// bytes — each run must allocate less than the smallest vector the tree
// builds.
func TestScratchConvAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 2*ConvCrossoverN + 77 // forks at two tree levels
	probs := randProbs(rng, n, false)
	k := n / 3
	var s Scratch
	for i := 0; i < 3; i++ {
		s.TailKernel(probs, k, KernelConv) // warm the freelists
	}
	const runs = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		s.TailKernel(probs, k, KernelConv)
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	smallest := uint64(8 * (convLeafN/2 + 1)) // a leaf vector: ≥ 257 cells here
	if perRun >= smallest {
		t.Fatalf("steady-state conv allocated %d bytes per run, at least one float vector (%d bytes)", perRun, smallest)
	}
}

// refConvTail is the convolution kernel without the live window, the
// register-held absorbing cell and the forks: every cell of every sub-PMF,
// computed serially through memory. It is the bitwise oracle for
// TailKernel(…, KernelConv).
func refConvTail(probs []float64, k int) float64 {
	n := len(probs)
	switch {
	case k <= 0:
		return 1
	case k > n:
		return 0
	case n <= convLeafN:
		return refTailDP(probs, k)
	}
	var rest []float64
	for _, p := range probs {
		switch p {
		case 1:
			k--
		case 0:
		default:
			rest = append(rest, p)
		}
	}
	switch {
	case k <= 0:
		return 1
	case k > len(rest):
		return 0
	}
	out := refConvTree(rest, k)[k]
	if out > 1 {
		return 1
	}
	if out < 0 {
		return 0
	}
	return out
}

func refConvTree(probs []float64, k int) []float64 {
	n := len(probs)
	if n <= convLeafN {
		v := make([]float64, min(n, k)+1)
		refLeafPMF(v, probs, k)
		return v
	}
	a := refConvTree(probs[:n/2], k)
	b := refConvTree(probs[n/2:], k)
	out := make([]float64, min(len(a)+len(b)-2, k)+1)
	top := len(out) - 1
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		for j, bj := range b {
			out[min(i+j, top)] += ai * bj
		}
	}
	if out[top] > 1 {
		out[top] = 1
	}
	return out
}

// refLeafPMF is leafPMF: the textbook truncated DP over one block.
func refLeafPMF(v []float64, probs []float64, k int) {
	L := len(v) - 1
	v[0] = 1
	hi := 0
	for _, p := range probs {
		if hi < L {
			hi++
		}
		top := hi
		if L == k && hi == L {
			v[L] += v[L-1] * p
			top = L - 1
		}
		for c := top; c >= 1; c-- {
			v[c] = v[c]*(1-p) + v[c-1]*p
		}
		v[0] *= 1 - p
	}
}

// mixProbs draws n probabilities with the given shares of certain (p = 1)
// and impossible (p = 0) tuples, the rest uniform in (lo, 1).
func mixProbs(rng *rand.Rand, n int, ones, zeros, lo float64) []float64 {
	probs := make([]float64, n)
	for i := range probs {
		switch u := rng.Float64(); {
		case u < ones:
			probs[i] = 1
		case u < ones+zeros:
			probs[i] = 0
		default:
			probs[i] = lo + (1-lo)*rng.Float64()
		}
	}
	return probs
}

// TestConvMatchesFullTreeBitwise: the live window, the register-held
// absorbing cell and the forks change no bit. Fixed cases fork several
// levels deep; random draws take n in (512, 70000] log-uniform (so most are
// cheap), any k from below 0 to above n, and mixes with p ∈ {0, 1}. Half
// the draws put k within a few standard deviations of the mean support,
// where the tail is neither 0 nor 1 to the last bit; with probabilities
// near 1 that also puts the window's floors deep in the tree, where a
// subtree's top cells carry real mass. One Scratch serves every case, so
// stale freelist contents would show. The draws run until the reference
// has spent its budget of multiply-adds.
func TestConvMatchesFullTreeBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var s Scratch
	check := func(name string, probs []float64, k int) {
		t.Helper()
		got := s.TailKernel(probs, k, KernelConv)
		want := refConvTail(probs, k)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: n=%d k=%d: conv %v, full tree %v (bits differ)", name, len(probs), k, got, want)
		}
	}
	for _, c := range []struct {
		n, k            int
		ones, zeros, lo float64
	}{
		{70000, 300, 0, 0, 0},         // five fork levels, short vectors
		{20000, 15000, 0.25, 0.1, 0},  // paper-like: a quarter certain
		{12000, 11990, 0.5, 0, 0},     // k near n: the tail is far out
		{9000, 4600, 0, 0, 0},         // k near n/2
		{6000, 5915, 0, 0, 0.97},      // k near a mean close to n
		{8000, 7500, 0.25, 0.1, 0.97}, // the same with p ∈ {0, 1}
	} {
		check(fmt.Sprintf("fixed ones=%v zeros=%v lo=%v", c.ones, c.zeros, c.lo),
			mixProbs(rng, c.n, c.ones, c.zeros, c.lo), c.k)
	}
	budget := 1.2e9
	if raceEnabled {
		budget = 1e8
	}
	for trial := 0; budget > 0; trial++ {
		n := 512 + int(math.Ceil(math.Exp(rng.Float64()*math.Log(70000-512))))
		ones := [...]float64{0, 0.25, 0.5}[rng.Intn(3)]
		zeros := [...]float64{0, 0.1}[rng.Intn(2)]
		lo := [...]float64{0, 0.97}[rng.Intn(2)]
		probs := mixProbs(rng, n, ones, zeros, lo)
		k := rng.Intn(n+3) - 1
		if rng.Intn(2) == 0 {
			mean, variance := 0.0, 0.0
			for _, p := range probs {
				mean += p
				variance += p * (1 - p)
			}
			k = int(math.Round(mean + 3*math.Sqrt(variance)*(2*rng.Float64()-1)))
		}
		check(fmt.Sprintf("trial %d ones=%v zeros=%v lo=%v", trial, ones, zeros, lo), probs, k)
		// Charge the reference's merges: about (m)² products at the root,
		// as many again below it, m = min(n'/2, k') for the n' uncertain
		// tuples and the threshold k' they must reach; plus the leaves.
		m := max(min(float64(n)*(1-ones-zeros)/2, float64(k)-float64(n)*ones), 0)
		budget -= 2*m*m + float64(n)*convLeafN
	}
}
