// Flat key-value configuration with typed accessors.
//
// Experiments and examples are driven by small INI-style configs:
//   # comment
//   cluster.nodes = 128
//   manager.policy = mpc
//   manager.cycle_s = 1.0
// Sections ([power]) prefix keys with "power.". Values are stored as strings
// and converted on access; a missing key falls back to the caller's default.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pcap::common {

class Config {
 public:
  Config() = default;

  /// Parses INI-style text. Throws std::runtime_error on malformed lines
  /// (a line that is neither blank, a comment, a [section], nor key=value).
  static Config parse(std::string_view text);

  /// Loads and parses a file. Throws std::runtime_error if unreadable.
  static Config load_file(const std::string& path);

  void set(std::string key, std::string value);

  [[nodiscard]] std::optional<std::string> raw(const std::string& key) const;

  /// Typed getters with defaults. Conversion failure throws
  /// std::runtime_error naming the offending key.
  [[nodiscard]] std::string get_string(const std::string& key,
                                       std::string_view def) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t def) const;
  [[nodiscard]] double get_double(const std::string& key, double def) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool def) const;

  /// All keys in sorted order (map iteration order).
  [[nodiscard]] std::vector<std::string> keys() const;

  /// Serialises back to INI text (flat keys, no sections).
  [[nodiscard]] std::string to_string() const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace pcap::common
