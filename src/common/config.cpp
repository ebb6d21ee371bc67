#include "common/config.hpp"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/string_util.hpp"

namespace pcap::common {

Config Config::parse(std::string_view text) {
  Config cfg;
  std::string section;
  std::size_t lineno = 0;
  for (const auto& raw_line : split(text, '\n')) {
    ++lineno;
    const std::string_view line = trim(raw_line);
    if (line.empty() || line.front() == '#' || line.front() == ';') continue;
    if (line.front() == '[') {
      if (line.back() != ']') {
        throw std::runtime_error("config: unterminated section at line " +
                                 std::to_string(lineno));
      }
      section = std::string(trim(line.substr(1, line.size() - 2)));
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string_view::npos) {
      throw std::runtime_error("config: expected key=value at line " +
                               std::to_string(lineno));
    }
    std::string key(trim(line.substr(0, eq)));
    const std::string value(trim(line.substr(eq + 1)));
    if (key.empty()) {
      throw std::runtime_error("config: empty key at line " +
                               std::to_string(lineno));
    }
    if (!section.empty()) key = section + "." + key;
    cfg.set(std::move(key), value);
  }
  return cfg;
}

Config Config::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("config: cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse(ss.str());
}

void Config::set(std::string key, std::string value) {
  values_[std::move(key)] = std::move(value);
}

std::optional<std::string> Config::raw(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_string(const std::string& key,
                               std::string_view def) const {
  const auto v = raw(key);
  return v ? *v : std::string(def);
}

std::int64_t Config::get_int(const std::string& key, std::int64_t def) const {
  const auto v = raw(key);
  if (!v) return def;
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(v->c_str(), &end, 10);
  if (errno != 0 || end == v->c_str() || !trim(end).empty()) {
    throw std::runtime_error("config: key '" + key + "' is not an integer: " +
                             *v);
  }
  return parsed;
}

double Config::get_double(const std::string& key, double def) const {
  const auto v = raw(key);
  if (!v) return def;
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(v->c_str(), &end);
  if (errno != 0 || end == v->c_str()) {
    throw std::runtime_error("config: key '" + key + "' is not a number: " +
                             *v);
  }
  return parsed;
}

bool Config::get_bool(const std::string& key, bool def) const {
  const auto v = raw(key);
  if (!v) return def;
  const std::string lower = to_lower(*v);
  if (lower == "true" || lower == "1" || lower == "yes" || lower == "on") {
    return true;
  }
  if (lower == "false" || lower == "0" || lower == "no" || lower == "off") {
    return false;
  }
  throw std::runtime_error("config: key '" + key + "' is not a bool: " + *v);
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, _] : values_) out.push_back(k);
  return out;
}

std::string Config::to_string() const {
  std::string out;
  for (const auto& [k, v] : values_) {
    out += k;
    out += " = ";
    out += v;
    out += '\n';
  }
  return out;
}

}  // namespace pcap::common
