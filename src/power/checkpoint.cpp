#include "power/checkpoint.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

namespace pcap::power {

namespace {

// v5: the header line names the policy that wrote the image
// ("pcap-tree-checkpoint v5 mpc-c"), shard bodies carry no learner or
// predictor line (the root's images sit once in the tree header), and
// each zone carries only its orphan accounting ("orphan <power>
// <ever_measured>"). Older images are not
// readable: warm restart is same-binary by design, and rejecting the old
// header loudly beats resuming from a layout this build no longer writes.
constexpr const char* kTreeMagic = "pcap-tree-checkpoint";
constexpr const char* kTreeVersion = "v5";

/// C99 hexfloat: every bit of the mantissa survives the text round trip
/// (iostream hexfloat extraction is unreliable across standard libraries,
/// so both directions go through the C formatting functions).
std::string hex_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// Whitespace-token reader over the checkpoint image.
class Tokens {
 public:
  explicit Tokens(const std::string& text) : in_(text) {}

  std::string next(const char* what) {
    std::string tok;
    if (!(in_ >> tok)) {
      throw std::runtime_error(std::string("checkpoint: truncated before ") +
                               what);
    }
    return tok;
  }

  void expect(const char* literal) {
    const std::string tok = next(literal);
    if (tok != literal) {
      throw std::runtime_error(std::string("checkpoint: expected '") +
                               literal + "', got '" + tok + "'");
    }
  }

  double next_double(const char* what) {
    const std::string tok = next(what);
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end == tok.c_str() || *end != '\0') {
      throw std::runtime_error(std::string("checkpoint: bad double for ") +
                               what + ": '" + tok + "'");
    }
    return v;
  }

  std::int64_t next_i64(const char* what) {
    const std::string tok = next(what);
    char* end = nullptr;
    const long long v = std::strtoll(tok.c_str(), &end, 10);
    if (end == tok.c_str() || *end != '\0') {
      throw std::runtime_error(std::string("checkpoint: bad integer for ") +
                               what + ": '" + tok + "'");
    }
    return static_cast<std::int64_t>(v);
  }

  std::uint64_t next_u64(const char* what) {
    const std::string tok = next(what);
    char* end = nullptr;
    const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
    if (end == tok.c_str() || *end != '\0' || tok[0] == '-') {
      throw std::runtime_error(std::string("checkpoint: bad count for ") +
                               what + ": '" + tok + "'");
    }
    return static_cast<std::uint64_t>(v);
  }

  bool next_bool(const char* what) {
    const std::int64_t v = next_i64(what);
    if (v != 0 && v != 1) {
      throw std::runtime_error(std::string("checkpoint: bad flag for ") +
                               what);
    }
    return v == 1;
  }

 private:
  std::istringstream in_;
};

void encode_learner(std::ostringstream& out, const LearnerCheckpoint& l) {
  out << "learner " << hex_double(l.p_peak) << ' '
      << hex_double(l.running_peak) << ' ' << hex_double(l.window_peak) << ' '
      << l.cycles << ' ' << l.cycles_since_adjust << ' ' << l.adjustments
      << ' ' << (l.frozen ? 1 : 0) << ' ' << (l.training_done ? 1 : 0)
      << '\n';
}

LearnerCheckpoint decode_learner(Tokens& t) {
  t.expect("learner");
  LearnerCheckpoint l;
  l.p_peak = t.next_double("p_peak");
  l.running_peak = t.next_double("running_peak");
  l.window_peak = t.next_double("window_peak");
  l.cycles = t.next_i64("cycles");
  l.cycles_since_adjust = t.next_i64("cycles_since_adjust");
  l.adjustments = t.next_i64("adjustments");
  l.frozen = t.next_bool("frozen");
  l.training_done = t.next_bool("training_done");
  return l;
}

/// Opaque flat-double state vectors (predictor / policy). One line:
/// "<tag> <count> <hex> <hex> ..." — hexfloat for the same bit-exact
/// round trip the learner doubles get.
void encode_doubles(std::ostringstream& out, const char* tag,
                    const std::vector<double>& v) {
  out << tag << ' ' << v.size();
  for (const double d : v) out << ' ' << hex_double(d);
  out << '\n';
}

std::vector<double> decode_doubles(Tokens& t, const char* tag) {
  t.expect(tag);
  const std::uint64_t n = t.next_u64("state length");
  std::vector<double> v;
  v.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    v.push_back(t.next_double("state entry"));
  }
  return v;
}

void encode_shard_body(std::ostringstream& out, const ShardCheckpoint& cp) {
  out << "engine " << cp.engine.time_g << ' ' << cp.engine.degraded.size();
  for (const hw::NodeId id : cp.engine.degraded) out << ' ' << id;
  out << '\n';
  out << "recon " << cp.reconciler.slots.size() << '\n';
  for (const ReconcilerSlotCheckpoint& s : cp.reconciler.slots) {
    out << "slot " << s.node << ' ' << s.pending_target << ' '
        << s.issued_cycle << ' ' << s.next_retry_cycle << ' '
        << s.pending_retries << ' ' << s.believed_level << ' '
        << s.observed_cycle << ' ' << (s.has_pending ? 1 : 0) << ' '
        << (s.has_believed ? 1 : 0) << ' ' << (s.unresponsive ? 1 : 0)
        << '\n';
  }
  out << "collector " << cp.collector_cycles << '\n';
  encode_doubles(out, "policy", cp.policy_state);
}

ShardCheckpoint decode_shard_body(Tokens& t) {
  ShardCheckpoint cp;
  t.expect("engine");
  cp.engine.time_g = t.next_i64("time_g");
  const std::uint64_t degraded = t.next_u64("degraded count");
  cp.engine.degraded.reserve(degraded);
  for (std::uint64_t i = 0; i < degraded; ++i) {
    cp.engine.degraded.push_back(
        static_cast<hw::NodeId>(t.next_u64("degraded id")));
  }
  t.expect("recon");
  const std::uint64_t slots = t.next_u64("slot count");
  cp.reconciler.slots.reserve(slots);
  for (std::uint64_t i = 0; i < slots; ++i) {
    t.expect("slot");
    ReconcilerSlotCheckpoint s;
    s.node = static_cast<hw::NodeId>(t.next_u64("slot node"));
    s.pending_target = static_cast<hw::Level>(t.next_i64("pending_target"));
    s.issued_cycle = t.next_u64("issued_cycle");
    s.next_retry_cycle = t.next_u64("next_retry_cycle");
    s.pending_retries = static_cast<int>(t.next_i64("pending_retries"));
    s.believed_level = static_cast<hw::Level>(t.next_i64("believed_level"));
    s.observed_cycle = t.next_u64("observed_cycle");
    s.has_pending = t.next_bool("has_pending");
    s.has_believed = t.next_bool("has_believed");
    s.unresponsive = t.next_bool("unresponsive");
    cp.reconciler.slots.push_back(s);
  }
  t.expect("collector");
  cp.collector_cycles = t.next_u64("collector cycles");
  cp.policy_state = decode_doubles(t, "policy");
  return cp;
}

}  // namespace

std::string encode_checkpoint(const TreeCheckpoint& cp) {
  if (cp.shards.size() != cp.zones.size()) {
    throw std::runtime_error(
        "checkpoint: tree shard/zone vectors must be parallel");
  }
  if (cp.policy.empty() ||
      cp.policy.find_first_of(" \t\n\r\f\v") != std::string::npos) {
    throw std::runtime_error("checkpoint: policy name '" + cp.policy +
                             "' is not one token");
  }
  std::ostringstream out;
  out << kTreeMagic << ' ' << kTreeVersion << ' ' << cp.policy << '\n';
  encode_learner(out, cp.learner);
  encode_doubles(out, "predictor", cp.predictor_state);
  out << "zones " << cp.shards.size() << '\n';
  for (std::size_t z = 0; z < cp.shards.size(); ++z) {
    out << "zone " << z << '\n';
    encode_shard_body(out, cp.shards[z]);
    out << "orphan " << hex_double(cp.zones[z].power) << ' '
        << (cp.zones[z].ever_measured ? 1 : 0) << '\n';
  }
  return out.str();
}

TreeCheckpoint decode_tree_checkpoint(const std::string& text) {
  Tokens t(text);
  t.expect(kTreeMagic);
  const std::string version = t.next("version");
  if (version != kTreeVersion) {
    throw std::runtime_error("checkpoint: image version '" + version +
                             "' is not readable; this build reads " +
                             kTreeVersion + " only");
  }
  TreeCheckpoint cp;
  cp.policy = t.next("policy name");
  cp.learner = decode_learner(t);
  cp.predictor_state = decode_doubles(t, "predictor");
  t.expect("zones");
  const std::uint64_t zones = t.next_u64("zone count");
  cp.shards.reserve(zones);
  cp.zones.reserve(zones);
  for (std::uint64_t z = 0; z < zones; ++z) {
    t.expect("zone");
    const std::uint64_t idx = t.next_u64("zone index");
    if (idx != z) {
      throw std::runtime_error("checkpoint: zone index out of order");
    }
    cp.shards.push_back(decode_shard_body(t));
    t.expect("orphan");
    ZoneCheckpoint zc;
    zc.power = t.next_double("orphan power");
    zc.ever_measured = t.next_bool("ever_measured");
    cp.zones.push_back(zc);
  }
  return cp;
}

}  // namespace pcap::power
