// Package sim provides deterministic building blocks for Punica's
// simulations: a seedable random number generator with the distribution
// samplers the evaluation needs (exponential, log-normal, Zipf) and a
// virtual clock for discrete-event simulation.
//
// Everything in this package is deterministic given a seed so that every
// experiment in the paper reproduction can be replayed bit-for-bit.
package sim

import (
	"math"
	"math/rand"
)

// RNG is a deterministic random source used by all workload generators and
// simulations. It wraps math/rand with the samplers the Punica evaluation
// needs. It is not safe for concurrent use; create one per goroutine.
type RNG struct {
	src *rand.Rand
}

// NewRNG returns a deterministic RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{src: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int { return r.src.Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (r *RNG) Int63() int64 { return r.src.Int63() }

// Exponential returns a sample from an exponential distribution with the
// given mean. This drives Poisson arrival processes: inter-arrival gaps of
// a Poisson process with rate λ are exponential with mean 1/λ (§7.3).
func (r *RNG) Exponential(mean float64) float64 {
	return r.src.ExpFloat64() * mean
}

// LogNormal returns a sample from a log-normal distribution parameterised
// by the underlying normal's mu and sigma. ShareGPT-like prompt and
// response length distributions are heavy-tailed; log-normal is the
// standard synthetic stand-in.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.src.NormFloat64())
}

// Zipf samples ranks from a Zipf distribution matching the paper's Skewed
// workload: "the number of requests to the i-th most popular model is α
// times that of the i+1-th's" (§7). That is a geometric popularity law:
// P(rank=i) ∝ α^{-i}. The paper calls it Zipf-α with α = 1.5.
type Zipf struct {
	cdf []float64
	rng *RNG
}

// NewZipf builds a sampler over n ranks with decay factor alpha > 1.
// Rank 0 is the most popular model.
func NewZipf(rng *RNG, n int, alpha float64) *Zipf {
	if n <= 0 {
		panic("sim: Zipf needs n > 0")
	}
	if alpha <= 1 {
		panic("sim: Zipf needs alpha > 1")
	}
	cdf := make([]float64, n)
	sum := 0.0
	w := 1.0
	for i := 0; i < n; i++ {
		sum += w
		cdf[i] = sum
		w /= alpha
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, rng: rng}
}

// Rank returns a sampled rank in [0, n), rank 0 most popular.
func (z *Zipf) Rank() int {
	u := z.rng.Float64()
	// Binary search the CDF.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cdf) }
