// Microbenchmarks for the discrete-event kernel: the whole simulation
// (ticks, manager cycles, job events) flows through this queue.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace pcap;

void BM_ScheduleAndPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  common::Rng rng(1);
  std::vector<double> times;
  times.reserve(n);
  for (std::size_t i = 0; i < n; ++i) times.push_back(rng.uniform(0.0, 1e6));
  for (auto _ : state) {
    sim::EventQueue q;
    for (const double t : times) q.schedule(Seconds{t}, [] {});
    while (!q.empty()) benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ScheduleAndPop)->RangeMultiplier(4)->Range(64, 16384)->Complexity();

void BM_PeriodicTicks(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    std::uint64_t count = 0;
    sim.every(Seconds{1.0}, Seconds{1.0}, [&](Seconds) { ++count; });
    sim.run_until(Seconds{10000.0});
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10000);
}
BENCHMARK(BM_PeriodicTicks);

}  // namespace

BENCHMARK_MAIN();
