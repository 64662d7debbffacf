package stats

import "math/rand"

// NewRand returns a deterministic *rand.Rand for the given seed. Every
// stochastic component in the repository (injection, sampling, SGD,
// synthetic generators) draws from an explicitly seeded source so that
// experiments — and therefore the DQ4DM knowledge base built from them —
// are reproducible bit for bit, as §3.1 of the paper requires of a
// "controlled manner" of introducing data quality problems.
func NewRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// SampleWithoutReplacement returns k distinct indices drawn uniformly from
// [0,n). When k >= n it returns a full permutation.
func SampleWithoutReplacement(rng *rand.Rand, n, k int) []int {
	p := rng.Perm(n)
	if k >= n {
		return p
	}
	return p[:k]
}

// Gaussian returns a normal variate with the given mean and standard
// deviation.
func Gaussian(rng *rand.Rand, mean, sd float64) float64 {
	return mean + sd*rng.NormFloat64()
}

// Categorical draws an index from the (unnormalized, non-negative) weight
// vector w. A zero-sum weight vector yields index 0.
func Categorical(rng *rand.Rand, w []float64) int {
	total := 0.0
	for _, v := range w {
		total += v
	}
	if total <= 0 {
		return 0
	}
	u := rng.Float64() * total
	cum := 0.0
	for i, v := range w {
		cum += v
		if u < cum {
			return i
		}
	}
	return len(w) - 1
}
