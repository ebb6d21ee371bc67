#include "power/policy_registry.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/string_util.hpp"

namespace pcap::power {

void PiTuning::validate() const {
  if (!(kp >= 0.0) || !(ki >= 0.0)) {
    throw std::invalid_argument("pi gains must be >= 0");
  }
  if (!(kp > 0.0 || ki > 0.0)) {
    throw std::invalid_argument("pi controller needs kp or ki > 0");
  }
  if (!(integral_cap >= 0.0)) {
    throw std::invalid_argument("pi.integral_cap must be >= 0");
  }
}

SlaClass sla_class_of(workload::JobId id) {
  switch (id % 5) {
    case 0:
    case 1:
      return SlaClass::kBronze;
    case 2:
    case 3:
      return SlaClass::kSilver;
    default:
      return SlaClass::kGold;
  }
}

double mean_job_temperature(const PolicyContext& ctx, const JobView& job) {
  if (job.nodes.empty()) return 0.0;
  double sum = 0.0;
  std::size_t n = 0;
  for (const hw::NodeId id : job.nodes) {
    if (const NodeView* nv = ctx.node(id)) {
      sum += nv->temperature.value();
      ++n;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

namespace {

using Ref = SelectionScratch::Ref;

/// What a row takes once its jobs are ranked.
enum class Goal {
  kOneJob,    ///< the first job
  kGap,       ///< whole jobs until Saved >= P - P_L (Algorithm 2)
  kForecast,  ///< whole jobs until max(forecast - P_L, P - P_L)
  kPi,        ///< whole jobs until max(P_L (kp e + ki ∫e), P - P_L)
  kBestFit,   ///< the smallest saving >= P - P_L, else the largest
  kAllNodes,  ///< every busy node above the floor
};

/// Rewrites Ref::score before ranking; nullptr keeps the ΔP^t(J) that
/// SelectionScratch::build stores.
using Score = double (*)(const PolicyContext&, const JobView&);
/// The ranking: true when `a` comes before `b`.
using Before = bool (*)(const Ref&, const Ref&);

struct Row {
  const char* name;
  Score score;
  Before before;  ///< nullptr for the rows that rank nothing
  Goal goal;
};

bool power_descending(const Ref& a, const Ref& b) {
  return a.job->power > b.job->power;
}
bool power_ascending(const Ref& a, const Ref& b) {
  return a.job->power < b.job->power;
}
bool score_descending(const Ref& a, const Ref& b) { return a.score > b.score; }
bool class_then_power(const Ref& a, const Ref& b) {
  if (a.score != b.score) return a.score < b.score;  // bronze first
  return power_descending(a, b);
}
double sla_score(const PolicyContext& /*ctx*/, const JobView& job) {
  return static_cast<double>(sla_class_of(job.id));
}

// One job is std::min_element under `before`, the first of equally ranked
// jobs; collections stable_sort under it, so ties keep context order.
const Row kRows[] = {
    {"mpc", nullptr, power_descending, Goal::kOneJob},
    {"mpc-c", nullptr, power_descending, Goal::kGap},
    {"lpc", nullptr, power_ascending, Goal::kOneJob},
    {"lpc-c", nullptr, power_ascending, Goal::kGap},
    {"bfp", nullptr, nullptr, Goal::kBestFit},
    {"hri", nullptr, score_descending, Goal::kOneJob},
    {"hri-c", nullptr, score_descending, Goal::kGap},
    {"ht", mean_job_temperature, score_descending, Goal::kOneJob},
    {"ht-c", mean_job_temperature, score_descending, Goal::kGap},
    {"pi-c", nullptr, power_descending, Goal::kPi},
    {"pred-c", nullptr, power_descending, Goal::kForecast},
    {"uniform", nullptr, nullptr, Goal::kAllNodes},
    {"sla", sla_score, class_then_power, Goal::kGap},
};

class TablePolicy final : public TargetSelectionPolicy {
 public:
  TablePolicy(const Row& row, const PiTuning& pi) : row_(row), pi_(pi) {
    if (row_.goal == Goal::kPi) pi_.validate();
  }

  [[nodiscard]] std::string name() const override { return row_.name; }

  std::vector<hw::NodeId> select(const PolicyContext& ctx) override {
    switch (row_.goal) {
      case Goal::kOneJob: {
        const std::vector<Ref>& jobs = scored_jobs(ctx);
        if (jobs.empty()) return {};
        return scratch_.targets_of(
            *std::min_element(jobs.begin(), jobs.end(), row_.before));
      }
      case Goal::kGap:
        // Takes the first job even when P - P_L is 0: zone shards drive
        // their shares through this path and rely on the >= comparison.
        return accumulate(ctx, ctx.required_saving());
      case Goal::kForecast:
      case Goal::kPi: {
        // A forecast (or PI output) can legitimately demand nothing.
        const Watts demand = forecast_demand(ctx);
        if (demand <= Watts{0.0}) return {};
        return accumulate(ctx, demand);
      }
      case Goal::kBestFit:
        return best_fit(ctx);
      case Goal::kAllNodes:
        break;
    }
    std::vector<hw::NodeId> out;
    out.reserve(ctx.nodes.size());
    for (const NodeView& nv : ctx.nodes) {
      if (nv.busy && !nv.at_lowest) out.push_back(nv.id);
    }
    return out;
  }

  [[nodiscard]] bool forecast_driven() const override {
    return row_.goal == Goal::kPi || row_.goal == Goal::kForecast;
  }

  [[nodiscard]] bool reads_temperature() const override {
    return row_.score == mean_job_temperature;
  }

  [[nodiscard]] std::vector<double> checkpoint_state() const override {
    if (row_.goal != Goal::kPi) return {};
    return {integral_};
  }

  void restore_state(const std::vector<double>& state) override {
    if (row_.goal != Goal::kPi) return;
    if (state.size() != 1) {
      throw std::invalid_argument("pi-c policy state must have 1 entry");
    }
    integral_ = state[0];
  }

 private:
  /// Jobs with a throttleable node, scored by the row's key (unsorted).
  std::vector<Ref>& scored_jobs(const PolicyContext& ctx) {
    scratch_.build(ctx);
    std::vector<Ref>& jobs = scratch_.refs();
    if (row_.score != nullptr) {
      for (Ref& r : jobs) r.score = row_.score(ctx, *r.job);
    }
    return jobs;
  }

  /// Algorithm 2: whole jobs in the row's order, deduplicating nodes
  /// shared between them, until the accumulated saving covers `needed`.
  std::vector<hw::NodeId> accumulate(const PolicyContext& ctx, Watts needed) {
    std::vector<Ref>& jobs = scored_jobs(ctx);
    if (jobs.empty()) return {};
    std::stable_sort(jobs.begin(), jobs.end(), row_.before);

    std::vector<hw::NodeId> targets;
    scratch_.begin_visit();
    Watts saved{0.0};
    for (const Ref& tj : jobs) {
      for (std::uint32_t i = tj.begin; i < tj.end; ++i) {
        const hw::NodeId id = scratch_.node_buf()[i];
        if (!scratch_.visit(id)) continue;  // Nodes(J_i) - A
        targets.push_back(id);
        const NodeView* nv = ctx.node(id);
        saved += nv->power - nv->power_one_level_down;
      }
      if (saved >= needed) break;  // "if Saved >= P - P_L then exit"
    }
    return targets;
  }

  /// The watts pred-c / pi-c ask for. The forecast only ever adds
  /// shedding: when the meter itself is over P_L the demand never drops
  /// below Algorithm 2's reactive requirement, so a forecast lagging a
  /// fast ramp cannot talk the controller out of the measured excursion.
  Watts forecast_demand(const PolicyContext& ctx) {
    // Zone-shard share mode: the deficit was shaped upstream; honour it.
    if (ctx.p_low <= Watts{0.0}) return ctx.required_saving();
    const Watts p = ctx.has_forecast ? ctx.forecast_power : ctx.system_power;
    if (row_.goal == Goal::kForecast) {
      return std::max(p - ctx.p_low, ctx.required_saving());
    }
    const double error = (p - ctx.p_low) / ctx.p_low;
    // Conditional integration with a hard clamp: positive error charges
    // the integral up to the cap, negative error (headroom) discharges it
    // back towards zero, so the controller never "owes" throttling from a
    // past excursion once the system has been green for a while.
    integral_ = std::clamp(integral_ + error, 0.0, pi_.integral_cap);
    const double intensity = pi_.kp * error + pi_.ki * integral_;
    return std::max(ctx.p_low * intensity, ctx.required_saving());
  }

  /// BFP: the job whose saving is the smallest one >= P - P_L ("just
  /// above the difference"); if none covers the gap, the largest saving.
  /// Strict comparisons keep ties on the earliest job in context order.
  std::vector<hw::NodeId> best_fit(const PolicyContext& ctx) {
    const std::vector<Ref>& jobs = scored_jobs(ctx);
    const Watts needed = ctx.required_saving();
    const Ref* best_above = nullptr;
    const Ref* best_below = nullptr;
    for (const Ref& tj : jobs) {
      if (tj.saving >= needed) {
        if (best_above == nullptr || tj.saving < best_above->saving) {
          best_above = &tj;
        }
      } else if (best_below == nullptr || tj.saving > best_below->saving) {
        best_below = &tj;
      }
    }
    const Ref* chosen = best_above != nullptr ? best_above : best_below;
    if (chosen == nullptr) return {};
    return scratch_.targets_of(*chosen);
  }

  const Row& row_;
  PiTuning pi_;
  /// pi-c's accumulated relative error, clamped to [0, integral_cap]. The
  /// zero floor is the anti-windup: sustained green bleeds the integral
  /// instead of charging a debt that would delay the next response.
  double integral_ = 0.0;
  SelectionScratch scratch_;
};

}  // namespace

PolicyPtr make_policy(const std::string& name) {
  return make_policy(name, PiTuning{});
}

PolicyPtr make_policy(const std::string& name, const PiTuning& pi) {
  const std::string n = common::to_lower(name);
  for (const Row& row : kRows) {
    if (n == row.name) return std::make_unique<TablePolicy>(row, pi);
  }
  throw std::invalid_argument("make_policy: unknown policy '" + name + "'");
}

std::vector<std::string> policy_names() {
  std::vector<std::string> names;
  for (const Row& row : kRows) names.emplace_back(row.name);
  return names;
}

}  // namespace pcap::power
