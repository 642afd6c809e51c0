package rng

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sourceSeeds covers the seed folding edge cases: zero (replaced by the
// fixed nonzero seed), negative, the modulus itself (folds to zero),
// just above 2^31, the largest int64, and a derived substream seed.
func sourceSeeds() []int64 {
	return []int64{
		0, -1, 1, math.MaxInt32, math.MaxInt32 + 1, math.MaxInt64,
		int64(NewSource(42).SeedFor("client-7-think")),
	}
}

func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range sourceSeeds() {
		want := rand.NewSource(seed).(rand.Source64)
		var got alfgSource
		got.Seed(seed)
		for i := 0; i < 5000; i++ {
			if i%2 == 0 {
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d draw %d: Int63 = %d, math/rand %d", seed, i, g, w)
				}
			} else if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: Uint64 = %d, math/rand %d", seed, i, g, w)
			}
		}
	}
}

func TestSourceReseedInPlace(t *testing.T) {
	var s alfgSource
	s.Seed(5)
	for i := 0; i < 1000; i++ {
		s.Uint64()
	}
	s.Seed(-9)
	want := rand.NewSource(-9)
	for i := 0; i < 1000; i++ {
		if g, w := s.Int63(), want.Int63(); g != w {
			t.Fatalf("draw %d after reseed: %d, math/rand %d", i, g, w)
		}
	}
}

// legacyStream builds a Stream the way it was built before alfgSource:
// directly over math/rand's own source.
func legacyStream(seed uint64) *Stream {
	return &Stream{r: rand.New(rand.NewSource(int64(seed)))}
}

func TestStreamHelpersMatchLegacy(t *testing.T) {
	for _, seed := range sourceSeeds() {
		got, want := NewStream(uint64(seed)), legacyStream(uint64(seed))
		for i := 0; i < 500; i++ {
			if g, w := got.Intn(1000), want.Intn(1000); g != w {
				t.Fatalf("seed %d: Intn draw %d = %d, legacy %d", seed, i, g, w)
			}
			if g, w := got.Exp(7), want.Exp(7); g != w {
				t.Fatalf("seed %d: Exp draw %d = %v, legacy %v", seed, i, g, w)
			}
			if g, w := got.Normal(3, 2), want.Normal(3, 2); g != w {
				t.Fatalf("seed %d: Normal draw %d = %v, legacy %v", seed, i, g, w)
			}
		}
		if g, w := got.Shuffle(200), want.Shuffle(200); !slices.Equal(g, w) {
			t.Fatalf("seed %d: Shuffle differs from legacy", seed)
		}
		gz, wz := got.NewZipf(1.2, 5000), want.NewZipf(1.2, 5000)
		for i := 0; i < 500; i++ {
			if g, w := gz.Draw(), wz.Draw(); g != w {
				t.Fatalf("seed %d: Zipf draw %d = %d, legacy %d", seed, i, g, w)
			}
		}
	}
}

// BenchmarkStreamSeed measures building one named substream, the cost
// the closed-loop driver pays twice per client.
func BenchmarkStreamSeed(b *testing.B) {
	src := NewSource(42)
	seed := src.SeedFor("client-0-think")
	for b.Loop() {
		sinkStream = NewStream(seed)
	}
}

var sinkStream *Stream
