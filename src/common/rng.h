#ifndef OJV_COMMON_RNG_H_
#define OJV_COMMON_RNG_H_

#include <cstdint>
#include <string>
#include <vector>

namespace ojv {

/// Deterministic 64-bit PRNG (splitmix64-seeded xorshift128+).
///
/// Both the TPC-H generator and the property-test harness need streams
/// that are stable across platforms and standard-library versions, which
/// std::mt19937 + std::uniform_int_distribution do not guarantee, so we
/// hand-roll the generator and the bounded-draw logic.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  /// Uniform 64-bit draw.
  uint64_t Next();

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t Uniform(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Bernoulli draw with probability p.
  bool Chance(double p) { return NextDouble() < p; }

  /// Deterministic pseudo-text of the requested length (lowercase words).
  std::string Text(int min_len, int max_len);

  /// Creates an independent child stream; used so that, e.g., each TPC-H
  /// table's column streams do not perturb each other when scale changes.
  Rng Fork(uint64_t salt);

 private:
  uint64_t s0_;
  uint64_t s1_;
};

/// Zipf-distributed rank sampler: P(rank k) ∝ 1/(k+1)^s over ranks
/// [0, n). s = 0 degenerates to uniform; s around 1 is the classic
/// web/retail skew. The CDF is precomputed once (O(n) doubles) so each
/// draw is one Uniform double plus a binary search — deterministic
/// across platforms, like the generator itself. Used by bench_skew and
/// the hot-key streams of the deferred policy-equivalence tests.
class ZipfDistribution {
 public:
  /// Requires n >= 1 and s >= 0.
  ZipfDistribution(int64_t n, double s);

  /// Draws a rank in [0, n); rank 0 is the most probable.
  int64_t Sample(Rng* rng) const;

  int64_t n() const { return static_cast<int64_t>(cdf_.size()); }
  double s() const { return s_; }

 private:
  double s_;
  std::vector<double> cdf_;  // cumulative, cdf_.back() == 1.0
};

}  // namespace ojv

#endif  // OJV_COMMON_RNG_H_
