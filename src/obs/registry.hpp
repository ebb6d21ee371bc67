// Runtime observability: a deterministic metrics registry.
//
// Every series (monotonic counter, gauge, fixed-bucket histogram) is
// registered once at setup time; the hot path then performs nothing but
// array stores against preallocated slots — no hashing, no allocation,
// no locks. The registry is therefore NOT thread-safe: publish only from
// the thread driving the simulation (all existing publish sites sit in
// the serial sections of the tick/control loop).
//
// Determinism rules (see DESIGN.md §11):
//  * Counters and gauges derived from simulation state are a pure
//    function of the seed/config — identical across worker counts.
//  * Span histograms (obs/spans.hpp) record wall-clock durations and are
//    explicitly non-deterministic; nothing in the simulation may ever
//    read them back, so they cannot perturb results. Timing can be
//    disabled wholesale (set_timing_enabled) for overhead measurements.
//  * Registration is idempotent per series key: re-registering the same
//    key returns the existing slot (so a replacement manager re-binding
//    against a frozen registry keeps working), and freeze() turns any
//    *new* registration into an error — the guard that keeps series
//    creation out of the hot path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

namespace pcap::obs {

struct CounterHandle {
  std::size_t index = std::numeric_limits<std::size_t>::max();
  [[nodiscard]] bool valid() const {
    return index != std::numeric_limits<std::size_t>::max();
  }
};

struct GaugeHandle {
  std::size_t index = std::numeric_limits<std::size_t>::max();
  [[nodiscard]] bool valid() const {
    return index != std::numeric_limits<std::size_t>::max();
  }
};

struct HistogramHandle {
  std::size_t index = std::numeric_limits<std::size_t>::max();
  [[nodiscard]] bool valid() const {
    return index != std::numeric_limits<std::size_t>::max();
  }
};

class Registry {
 public:
  Registry() = default;

  // -- registration (setup phase) ---------------------------------------
  // `name` is the Prometheus family name (e.g. "pcap_manager_acks_total");
  // `labels` is an optional label body without braces (e.g.
  // "phase=\"collect\""). The series key is name or name{labels}.
  // Registering an existing key returns its handle; registering a new key
  // after freeze() throws std::logic_error.
  CounterHandle counter(const std::string& name, const std::string& help,
                        const std::string& labels = "");
  GaugeHandle gauge(const std::string& name, const std::string& help,
                    const std::string& labels = "");
  /// `upper_bounds` are the histogram's inclusive bucket upper bounds,
  /// strictly increasing and non-empty; samples above the last bound land
  /// in the implicit +Inf bucket.
  HistogramHandle histogram(const std::string& name, const std::string& help,
                            std::vector<double> upper_bounds,
                            const std::string& labels = "");

  /// Seals the series set: any registration of a new key afterwards
  /// throws. Called once by the owner before the first hot-path tick.
  void freeze() { frozen_ = true; }
  [[nodiscard]] bool frozen() const { return frozen_; }

  /// Gates span timing (obs/spans.hpp): when off, scopes skip the clock
  /// reads entirely. Counters and gauges are always live.
  void set_timing_enabled(bool on) { timing_enabled_ = on; }
  [[nodiscard]] bool timing_enabled() const { return timing_enabled_; }

  // -- hot path (array stores only) --------------------------------------
  void add(CounterHandle h, std::uint64_t delta = 1) {
    counters_[h.index].value += delta;
  }
  /// Mirrors an externally-maintained monotonic total into the slot (the
  /// channel/collector lifetime counters own their ground truth; the
  /// registry exposes it).
  void set_total(CounterHandle h, std::uint64_t total) {
    counters_[h.index].value = total;
  }
  void set(GaugeHandle h, double value) { gauges_[h.index].value = value; }
  void observe(HistogramHandle h, double x);

  // -- reads -------------------------------------------------------------
  [[nodiscard]] std::uint64_t value(CounterHandle h) const {
    return counters_[h.index].value;
  }
  [[nodiscard]] double value(GaugeHandle h) const {
    return gauges_[h.index].value;
  }
  [[nodiscard]] std::uint64_t count(HistogramHandle h) const {
    return histograms_[h.index].count;
  }
  [[nodiscard]] double sum(HistogramHandle h) const {
    return histograms_[h.index].sum;
  }

  /// Looks a series up by its key ("name" or "name{labels}"); consumers
  /// that did not register the series (e.g. the experiment runner reading
  /// manager counters) resolve handles this way.
  [[nodiscard]] std::optional<CounterHandle> find_counter(
      const std::string& key) const;
  [[nodiscard]] std::optional<GaugeHandle> find_gauge(
      const std::string& key) const;
  [[nodiscard]] std::optional<HistogramHandle> find_histogram(
      const std::string& key) const;
  /// find_counter + value in one step; nullopt when the series is absent.
  [[nodiscard]] std::optional<std::uint64_t> counter_value(
      const std::string& key) const;

  [[nodiscard]] std::size_t counter_count() const { return counters_.size(); }

  // -- exporters ---------------------------------------------------------
  /// Prometheus text exposition format (one # HELP/# TYPE per family, in
  /// registration order).
  [[nodiscard]] std::string prometheus_text() const;
  /// JSON snapshot: {"counters": {...}, "gauges": {...},
  /// "histograms": {key: {count, sum, le[], cumulative[]}}}.
  [[nodiscard]] std::string json_snapshot() const;

 private:
  struct CounterSeries {
    std::string key;
    std::string family;
    std::string labels;
    std::string help;
    std::uint64_t value = 0;
  };
  struct GaugeSeries {
    std::string key;
    std::string family;
    std::string labels;
    std::string help;
    double value = 0.0;
  };
  struct HistogramSeries {
    std::string key;
    std::string family;
    std::string labels;
    std::string help;
    std::vector<double> bounds;        ///< inclusive upper bounds
    std::vector<std::uint64_t> bins;   ///< bounds.size() + 1 (+Inf last)
    std::uint64_t count = 0;
    double sum = 0.0;
  };

  void check_new_series(const std::string& key) const;

  std::vector<CounterSeries> counters_;
  std::vector<GaugeSeries> gauges_;
  std::vector<HistogramSeries> histograms_;
  bool frozen_ = false;
  bool timing_enabled_ = true;
};

/// Series key for a (name, labels) pair: "name" or "name{labels}".
std::string series_key(const std::string& name, const std::string& labels);

}  // namespace pcap::obs
