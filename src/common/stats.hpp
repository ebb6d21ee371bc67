// Streaming statistics used throughout metrics and telemetry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace pcap::common {

/// Welford running mean/variance with min/max tracking.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);
  void reset();

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return n_ > 0 ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Time-weighted average of a piecewise-constant signal: each `add(value,
/// dt)` states that the signal held `value` for `dt` units of time.
class TimeWeightedMean {
 public:
  void add(double value, double dt);
  void reset();

  [[nodiscard]] double mean() const;
  [[nodiscard]] double total_time() const { return total_time_; }
  [[nodiscard]] double integral() const { return integral_; }

 private:
  double integral_ = 0.0;
  double total_time_ = 0.0;
};

/// Fixed-bin histogram over [lo, hi); out-of-range samples clamp to the
/// first/last bin and are counted separately.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  void reset();

  [[nodiscard]] std::uint64_t bin(std::size_t i) const { return counts_[i]; }
  [[nodiscard]] double bin_lo(std::size_t i) const;
  [[nodiscard]] double bin_hi(std::size_t i) const;
  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] std::uint64_t underflow() const { return underflow_; }
  [[nodiscard]] std::uint64_t overflow() const { return overflow_; }
  /// Linear-interpolated quantile in [0,1]; 0 samples -> lo bound.
  [[nodiscard]] double quantile(double q) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
};

/// Exact percentile over a retained sample vector (for modest sample
/// counts, e.g. per-job statistics). Computes by partial sort on demand.
class PercentileSampler {
 public:
  void add(double x) { samples_.push_back(x); }
  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  /// q in [0,1]; empty -> 0. Uses nearest-rank with linear interpolation.
  [[nodiscard]] double percentile(double q) const;
  void reset() { samples_.clear(); }

 private:
  mutable std::vector<double> samples_;
};

}  // namespace pcap::common
