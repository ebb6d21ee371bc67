#include "common/rng.hpp"

#include <cassert>
#include <cmath>

namespace pcap::common {

std::uint64_t splitmix64(std::uint64_t& state) {
  return mix64(state += 0x9e3779b97f4a7c15ULL);
}

std::uint64_t hash_tag(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& w : state_) w = splitmix64(sm);
}

Rng Rng::fork(std::uint64_t tag) {
  // Mix the tag with fresh output so sibling forks are independent.
  std::uint64_t sm = next_u64() ^ (tag * 0x9e3779b97f4a7c15ULL);
  return Rng{splitmix64(sm)};
}

Rng Rng::fork(std::string_view tag) { return fork(hash_tag(tag)); }

Rng Rng::stream(std::uint64_t index) const {
  // Fold the index and all four state words through SplitMix64 without
  // touching state_: sibling streams decorrelate, the parent stays put.
  std::uint64_t acc = 0x9e3779b97f4a7c15ULL * (index + 1);
  for (const std::uint64_t w : state_) {
    std::uint64_t sm = w ^ acc;
    acc = splitmix64(sm);
  }
  return Rng{acc};
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Lemire's rejection-free-ish multiply-shift with rejection for exactness.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * range;
  auto low = static_cast<std::uint64_t>(m);
  if (low < range) {
    const std::uint64_t threshold = -range % range;
    while (low < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * range;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return lo + static_cast<std::int64_t>(m >> 64);
}

namespace detail {

ZigguratTables::ZigguratTables() {
  const double m1 = 2147483648.0;  // 2^31
  const double vn = 9.91256303526217e-3;
  double dn = 3.442619855899;
  double tn = dn;
  const double q = vn / std::exp(-0.5 * dn * dn);
  kn[0] = static_cast<std::uint32_t>((dn / q) * m1);
  kn[1] = 0;
  wn[0] = q / m1;
  wn[127] = dn / m1;
  fn[0] = 1.0;
  fn[127] = std::exp(-0.5 * dn * dn);
  for (int i = 126; i >= 1; --i) {
    dn = std::sqrt(-2.0 * std::log(vn / dn + std::exp(-0.5 * dn * dn)));
    kn[i + 1] = static_cast<std::uint32_t>((dn / tn) * m1);
    tn = dn;
    fn[i] = std::exp(-0.5 * dn * dn);
    wn[i] = dn / m1;
  }
}

const ZigguratTables zig_normal;

namespace {
constexpr double kZigR = 3.442619855899;  // right edge of the base strip
}  // namespace

template <typename G>
double normal_slow(G& g, std::int32_t hz) {
  const ZigguratTables& z = zig_normal;
  std::size_t iz = static_cast<std::uint32_t>(hz) & 127u;
  for (;;) {
    if (iz == 0) {
      // Tail beyond R: Marsaglia's exact exponential-majorant method.
      double x = 0.0;
      double y = 0.0;
      do {
        double u1 = 0.0;
        do {
          u1 = g.uniform();
        } while (u1 <= 0.0);
        double u2 = 0.0;
        do {
          u2 = g.uniform();
        } while (u2 <= 0.0);
        x = -std::log(u1) / kZigR;
        y = -std::log(u2);
      } while (y + y < x * x);
      return hz > 0 ? kZigR + x : -(kZigR + x);
    }

    // Wedge between the strip and the density curve.
    const double x = hz * z.wn[iz];
    if (z.fn[iz] + g.uniform() * (z.fn[iz - 1] - z.fn[iz]) <
        std::exp(-0.5 * x * x)) {
      return x;
    }

    // Rejected: redraw from scratch (mirrors the inline fast path).
    hz = static_cast<std::int32_t>(g.next_u64() >> 32);
    iz = static_cast<std::uint32_t>(hz) & 127u;
    const std::uint32_t mag = hz < 0 ? 0u - static_cast<std::uint32_t>(hz)
                                     : static_cast<std::uint32_t>(hz);
    if (mag < z.kn[iz]) return hz * z.wn[iz];
  }
}

template double normal_slow<Rng>(Rng&, std::int32_t);
template double normal_slow<CounterRng>(CounterRng&, std::int32_t);

}  // namespace detail

std::size_t Rng::index(std::size_t n) {
  assert(n > 0);
  return static_cast<std::size_t>(
      uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

OrnsteinUhlenbeck::OrnsteinUhlenbeck(double mean, double sigma,
                                     double tau_seconds, double initial)
    : mean_(mean), sigma_(sigma), tau_(tau_seconds), value_(initial) {}

double OrnsteinUhlenbeck::step(double dt_seconds, Rng& rng) {
  // Exact discretisation of the OU SDE over a step of dt.
  if (dt_seconds != cached_dt_) {
    cached_dt_ = dt_seconds;
    decay_ = std::exp(-dt_seconds / tau_);
    noise_sd_ = sigma_ * std::sqrt(1.0 - decay_ * decay_);
  }
  value_ = mean_ + decay_ * (value_ - mean_) + noise_sd_ * rng.normal();
  return value_;
}

}  // namespace pcap::common
