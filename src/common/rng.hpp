// Deterministic, seedable random number generation.
//
// All stochastic behaviour in the library (workload draws, utilisation noise,
// sensor noise) flows through Rng so that experiments are reproducible
// bit-for-bit from a single seed. The generator is xoshiro256**, which is
// fast, tiny and has excellent statistical quality; independent streams are
// derived with SplitMix64 so per-component streams never correlate.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <vector>

namespace pcap::common {

namespace detail {
/// Ziggurat tables for the standard normal (Marsaglia & Tsang 2000, 128
/// strips), built once at static-initialisation time. kn gates the
/// no-rejection fast path against a 31-bit magnitude; wn scales the raw
/// integer into its strip; fn holds the density at each strip boundary.
struct ZigguratTables {
  std::uint32_t kn[128];
  double wn[128];
  double fn[128];
  ZigguratTables();
};
extern const ZigguratTables zig_normal;

/// Wedge/tail rejections (~2 % of draws), out of line; instantiated for
/// Rng and CounterRng.
template <typename G>
double normal_slow(G& g, std::int32_t hz);

/// The ziggurat fast path over any generator with next_u64()/uniform().
template <typename G>
inline double ziggurat_normal(G& g) {
  const auto hz = static_cast<std::int32_t>(g.next_u64() >> 32);
  const std::size_t iz = static_cast<std::uint32_t>(hz) & 127u;
  // |hz| as an unsigned 31-bit magnitude; 0u - x handles INT32_MIN.
  const std::uint32_t mag = hz < 0 ? 0u - static_cast<std::uint32_t>(hz)
                                   : static_cast<std::uint32_t>(hz);
  if (mag < zig_normal.kn[iz]) return hz * zig_normal.wn[iz];
  return normal_slow(g, hz);
}
}  // namespace detail

/// SplitMix64 finaliser: a bijective 64-bit mix with full avalanche.
inline std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** generator with convenience distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four-word state from a single 64-bit seed via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Derives an independent child stream; `tag` decorrelates streams that
  /// are forked from the same parent for different purposes.
  [[nodiscard]] Rng fork(std::uint64_t tag);
  /// Convenience overload hashing a string tag (e.g. component name).
  [[nodiscard]] Rng fork(std::string_view tag);
  /// Derives the `index`-th child stream as a pure function of the current
  /// state — the parent is NOT advanced, so the result is independent of
  /// the order (and number) of stream() calls. This is what makes
  /// per-element noise draws order-independent: fork one root per purpose,
  /// then stream(i) per element.
  [[nodiscard]] Rng stream(std::uint64_t index) const;

  /// Raw 64 uniformly distributed bits. Inline: every distribution below
  /// bottoms out here, often once per node per tick.
  std::uint64_t next_u64();

  // UniformRandomBitGenerator interface so <random> adaptors also work.
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next_u64(); }

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Standard normal via the Marsaglia-Tsang ziggurat: the common case is
  /// one 64-bit draw, one table compare and one multiply; transcendentals
  /// only on the rare wedge/tail rejections (~2 % of calls).
  double normal() { return detail::ziggurat_normal(*this); }
  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);
  /// Bernoulli trial with probability p of true.
  bool bernoulli(double p);
  /// Uniformly selects an index in [0, n). Requires n > 0.
  std::size_t index(std::size_t n);
  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      using std::swap;
      swap(v[i - 1], v[index(i)]);
    }
  }

 private:
  std::array<std::uint64_t, 4> state_{};
};

inline std::uint64_t Rng::next_u64() {
  const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = std::rotl(state_[3], 45);
  return result;
}

inline double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

inline double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

inline bool Rng::bernoulli(double p) { return uniform() < p; }

inline double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

/// SplitMix64 step — exposed for hashing/tagging purposes.
std::uint64_t splitmix64(std::uint64_t& state);

/// FNV-1a hash of a string, used to derive stream tags from names.
std::uint64_t hash_tag(std::string_view s);

/// Counter-based random stream (Salmon et al., "Parallel random numbers:
/// as easy as 1, 2, 3", SC 2011): a SplitMix64 sequence started at a hash
/// of (key, index), so each draw is a pure function of the pair and its
/// position and no state outlives the draw site. Typical use: one stream
/// per element, CounterRng(counter_key(root, cycle), node).
class CounterRng {
 public:
  CounterRng(std::uint64_t key, std::uint64_t index)
      : state_(mix64(key + index * 0x9e3779b97f4a7c15ULL)) {}

  std::uint64_t next_u64() { return mix64(state_ += 0x9e3779b97f4a7c15ULL); }
  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }
  /// Standard normal (the same ziggurat as Rng::normal).
  double normal() { return detail::ziggurat_normal(*this); }

 private:
  std::uint64_t state_;
};

/// Folds a counter (e.g. a collection cycle) into a root key.
inline std::uint64_t counter_key(std::uint64_t root, std::uint64_t counter) {
  return mix64(root ^ mix64(counter));
}

/// Mean-reverting Ornstein-Uhlenbeck process discretised at fixed steps.
/// Used to superimpose realistic temporal noise on utilisation signals:
/// the value wanders around `mean` with relaxation time `tau` and
/// stationary standard deviation `sigma`.
class OrnsteinUhlenbeck {
 public:
  OrnsteinUhlenbeck(double mean, double sigma, double tau_seconds,
                    double initial);

  /// Advances the process by dt seconds and returns the new value.
  double step(double dt_seconds, Rng& rng);

  /// Exact discretisation coefficients for a step of dt: decay =
  /// exp(-dt/tau), noise_sd = sigma * sqrt(1 - decay^2) — the same values
  /// step() computes and caches internally. Callers stepping thousands of
  /// processes at a handful of known dts (the cluster's k-tick staircase
  /// jumps) precompute one table and use step_with, which is bit-identical
  /// to step(dt) and keeps exp/sqrt out of the refresh loop entirely.
  struct StepCoeffs {
    double decay = 0.0;
    double noise_sd = 0.0;
  };
  [[nodiscard]] StepCoeffs coeffs(double dt_seconds) const {
    StepCoeffs c;
    c.decay = std::exp(-dt_seconds / tau_);
    c.noise_sd = sigma_ * std::sqrt(1.0 - c.decay * c.decay);
    return c;
  }
  double step_with(const StepCoeffs& c, Rng& rng) {
    value_ = mean_ + c.decay * (value_ - mean_) + c.noise_sd * rng.normal();
    return value_;
  }

  [[nodiscard]] double value() const { return value_; }
  void reset(double value) { value_ = value; }

 private:
  double mean_;
  double sigma_;
  double tau_;
  double value_;
  // Discretisation coefficients for the last-used dt; stepping a process
  // at a fixed cadence (every simulation tick) pays the exp/sqrt once
  // instead of every step.
  double cached_dt_ = -1.0;
  double decay_ = 0.0;
  double noise_sd_ = 0.0;
};

}  // namespace pcap::common
