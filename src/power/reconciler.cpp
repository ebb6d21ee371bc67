#include "power/reconciler.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/logging.hpp"
#include "power/checkpoint.hpp"

namespace pcap::power {

void ReconcilerParams::validate() const {
  if (max_retries < 0) {
    throw std::invalid_argument("ReconcilerParams: max_retries must be >= 0");
  }
  if (retry_backoff_base_cycles < 1) {
    throw std::invalid_argument(
        "ReconcilerParams: retry backoff base must be >= 1 cycle");
  }
  if (retry_backoff_cap_cycles < retry_backoff_base_cycles) {
    throw std::invalid_argument(
        "ReconcilerParams: retry backoff cap must be >= the base");
  }
}

void ActuationReconciler::CycleWork::clear() {
  commands.clear();
  acks = 0;
  retries = 0;
  divergences = 0;
  heals = 0;
  abandoned = 0;
  suppressed = 0;
  readmitted = 0;
  adopted_nodes.clear();
}

ActuationReconciler::ActuationReconciler(ReconcilerParams params)
    : params_(params) {
  // One Slot per id in the touched span; observe_node touches every fresh
  // view, so the span is the whole candidate set.
  static_assert(sizeof(Slot) <= 40,
                "reconciler Slot must stay packed (u64s, then ints, then flags)");
  params_.validate();
}

std::uint64_t ActuationReconciler::backoff(int retries) const {
  const auto base =
      static_cast<std::uint64_t>(params_.retry_backoff_base_cycles);
  const auto cap =
      static_cast<std::uint64_t>(params_.retry_backoff_cap_cycles);
  if (retries >= 30) return cap;
  return std::min(base << retries, cap);
}

void ActuationReconciler::register_pending(Slot& s, hw::Level target,
                                           std::uint64_t cycle) {
  if (!s.has_pending) ++pending_count_;
  s.has_pending = true;
  s.pending_target = target;
  s.issued_cycle = cycle;
  s.next_retry_cycle = cycle + backoff(0);
  s.pending_retries = 0;
}

void ActuationReconciler::observe_node(hw::NodeId id, hw::Level observed,
                                       std::uint64_t sample_cycle,
                                       std::uint64_t now_cycle,
                                       CycleWork& work) {
  Slot& s = slots_.touch(id);
  if (s.unresponsive) {
    // A fresh report from a node we gave up on: readmit it, adopting its
    // actual state as the new truth — our old intent was abandoned with
    // the retry budget.
    s.unresponsive = false;
    --unresponsive_count_;
    s.has_believed = true;
    s.believed_level = observed;
    s.observed_cycle = sample_cycle;
    ++work.readmitted;
    ++readmitted_;
    return;
  }

  if (s.has_believed && sample_cycle <= s.observed_cycle) {
    // Not newer than what already drove this table (the freshest sample
    // can move backwards when newer deliveries are corrupt): ignore.
    return;
  }

  if (s.has_pending) {
    if (observed == s.pending_target && sample_cycle > s.issued_cycle) {
      // Ack: the node demonstrably reached the commanded level after the
      // command was issued.
      s.has_believed = true;
      s.believed_level = observed;
      s.observed_cycle = sample_cycle;
      s.has_pending = false;
      --pending_count_;
      ++work.acks;
      ++acks_;
    }
    // Anything else — old level still showing, or a partial transition's
    // intermediate stop — means keep waiting; the retry clock decides.
    return;
  }

  if (!s.has_believed) {
    // First sight of this node: adopt what it reports.
    s.has_believed = true;
    s.believed_level = observed;
    s.observed_cycle = sample_cycle;
    return;
  }

  if (observed != s.believed_level) {
    // Divergence with nothing in flight: the node changed level under us
    // (reboot reset, partial transition acked long ago, operator). Heal
    // it back to the believed level and track the heal like any command.
    ++work.divergences;
    ++work.heals;
    work.commands.push_back(LevelCommand{id, s.believed_level});
    register_pending(s, s.believed_level, now_cycle);
  }
  s.observed_cycle = sample_cycle;
}

void ActuationReconciler::adopt_reality(hw::NodeId id, hw::Level observed,
                                        std::uint64_t sample_cycle,
                                        CycleWork& work) {
  Slot& s = slots_.touch(id);
  if (s.unresponsive) {
    s.unresponsive = false;
    --unresponsive_count_;
    ++work.readmitted;
    ++readmitted_;
  }
  if (s.has_pending) {
    // The failsafe stomped whatever was in flight; keeping the pending
    // command alive would retry — and eventually apply — a level the
    // watchdog deliberately overrode.
    s.has_pending = false;
    --pending_count_;
  }
  s.has_believed = true;
  s.believed_level = observed;
  s.observed_cycle = std::max(s.observed_cycle, sample_cycle);
  work.adopted_nodes.push_back(LevelCommand{id, observed});
  ++adopted_;
}

void ActuationReconciler::finish_observation(std::uint64_t cycle,
                                             CycleWork& work) {
  if (pending_count_ == 0) return;
  for (std::size_t idx = slots_.begin_id(); idx < slots_.end_id(); ++idx) {
    Slot& s = slots_[idx];
    if (!s.has_pending || s.next_retry_cycle > cycle) continue;
    if (s.pending_retries >= params_.max_retries) {
      // Budget exhausted: stop shouting at a node that never answers.
      // Marking it unresponsive drops it from the candidate context, so
      // selection and A_degraded forget it until fresh telemetry earns
      // it a readmission.
      PCAP_WARN(
          "reconciler: node %llu unresponsive after %d retries "
          "(target level %d abandoned)",
          static_cast<unsigned long long>(idx), s.pending_retries,
          s.pending_target);
      s.unresponsive = true;
      ++unresponsive_count_;
      s.has_pending = false;
      --pending_count_;
      ++work.abandoned;
      ++abandoned_;
      continue;
    }
    ++s.pending_retries;
    s.next_retry_cycle = cycle + backoff(s.pending_retries);
    work.commands.push_back(
        LevelCommand{static_cast<hw::NodeId>(idx), s.pending_target});
    ++work.retries;
    ++retries_;
  }
}

void ActuationReconciler::admit(const std::vector<LevelCommand>& decided,
                                std::uint64_t cycle, CycleWork& work) {
  for (const LevelCommand& cmd : decided) {
    Slot& s = slots_.touch(cmd.node);
    if (s.unresponsive) {
      ++work.suppressed;
      continue;
    }
    if (s.has_pending && s.pending_target == cmd.level) {
      continue;  // retries own it
    }
    // Registers a brand-new command, or supersedes a pending one with a
    // different target outright — the newest intent wins and gets a fresh
    // retry budget.
    register_pending(s, cmd.level, cycle);
    work.commands.push_back(cmd);
  }
}

hw::Level ActuationReconciler::believed(hw::NodeId id,
                                        hw::Level fallback) const {
  const Slot* s = find_slot(id);
  return s == nullptr || !s->has_believed ? fallback : s->believed_level;
}

ReconcilerCheckpoint ActuationReconciler::checkpoint() const {
  ReconcilerCheckpoint cp;
  for (std::size_t idx = slots_.begin_id(); idx < slots_.end_id(); ++idx) {
    const Slot& s = slots_[idx];
    if (!s.has_pending && !s.has_believed && !s.unresponsive) continue;
    ReconcilerSlotCheckpoint sc;
    sc.node = static_cast<hw::NodeId>(idx);
    sc.pending_target = s.pending_target;
    sc.issued_cycle = s.issued_cycle;
    sc.next_retry_cycle = s.next_retry_cycle;
    sc.pending_retries = s.pending_retries;
    sc.believed_level = s.believed_level;
    sc.observed_cycle = s.observed_cycle;
    sc.has_pending = s.has_pending;
    sc.has_believed = s.has_believed;
    sc.unresponsive = s.unresponsive;
    cp.slots.push_back(sc);
  }
  return cp;
}

void ActuationReconciler::restore(const ReconcilerCheckpoint& cp) {
  slots_.clear();
  pending_count_ = 0;
  unresponsive_count_ = 0;
  for (const ReconcilerSlotCheckpoint& sc : cp.slots) {
    Slot& s = slots_.touch(sc.node);
    s.pending_target = sc.pending_target;
    s.issued_cycle = sc.issued_cycle;
    s.next_retry_cycle = sc.next_retry_cycle;
    s.pending_retries = sc.pending_retries;
    s.believed_level = sc.believed_level;
    s.observed_cycle = sc.observed_cycle;
    s.has_pending = sc.has_pending;
    s.has_believed = sc.has_believed;
    s.unresponsive = sc.unresponsive;
    if (s.has_pending) ++pending_count_;
    if (s.unresponsive) ++unresponsive_count_;
  }
}

}  // namespace pcap::power
