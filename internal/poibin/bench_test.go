package poibin

import (
	"math/rand"
	"testing"
)

func benchProbs(n int) []float64 {
	rng := rand.New(rand.NewSource(1))
	ps := make([]float64, n)
	for i := range ps {
		ps[i] = rng.Float64()
	}
	return ps
}

// The exact DP tail is the miner's hottest numeric kernel; the analytic
// bounds and the normal approximation are its cheap stand-ins. These
// benchmarks quantify the gap that makes Chernoff-Hoeffding pruning
// (Lemma 4.1) worthwhile.

func BenchmarkTailExactN1000K300(b *testing.B) {
	probs := benchProbs(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Tail(probs, 300)
	}
}

func BenchmarkTailExactN1000K10(b *testing.B) {
	probs := benchProbs(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Tail(probs, 10)
	}
}

func BenchmarkTailUpperBoundN1000(b *testing.B) {
	probs := benchProbs(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		TailUpperBound(probs, 600)
	}
}

func BenchmarkNormalTailN1000(b *testing.B) {
	probs := benchProbs(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NormalTail(probs, 600)
	}
}

func BenchmarkCondSamplerBuildN500K150(b *testing.B) {
	probs := benchProbs(500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewCondSampler(probs, 150); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCondSamplerDrawN500K150(b *testing.B) {
	probs := benchProbs(500)
	cs, err := NewCondSampler(probs, 150)
	if err != nil {
		b.Fatal(err)
	}
	rng := NewSM64(2)
	dst := make([]bool, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Sample(rng, dst)
	}
}

// BenchmarkTailConvPaperShape is one tail at the shape that dominates
// mining T20I10D30KP40 at paper scale: 24,000 tuples, a quarter of them
// certain, threshold 18,000 — so 18,000 uncertain tuples must reach
// 12,000, on the convolution tree.
func BenchmarkTailConvPaperShape(b *testing.B) {
	probs := benchProbs(24000)
	for i := 0; i < len(probs); i += 4 {
		probs[i] = 1
	}
	var s Scratch
	for i := 0; i < 3; i++ {
		s.Tail(probs, 18000) // warm the freelists
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = s.Tail(probs, 18000)
	}
}

var benchSink float64
