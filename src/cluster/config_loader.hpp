// Builds experiment configurations from INI-style config files (see
// examples/configs/*.ini and the pcapsim driver). Each key is one row of
// the table in config_loader.cpp, with its doc and value rule; every key
// is optional. `pcapsim --print-config [config.ini] [section.key=value]...`
// prints every key with its effective value.
#pragma once

#include <string>

#include "cluster/experiment.hpp"
#include "common/config.hpp"

namespace pcap::cluster {

/// Applies config keys on top of `base` (typically paper_scenario()).
/// Unknown keys are rejected with std::runtime_error so typos do not
/// silently produce default-valued experiments.
ExperimentConfig apply_config(ExperimentConfig base,
                              const common::Config& cfg);

/// Every key of the table with `config`'s value, as flat INI text
/// (`section.key = value` lines, sorted). Numbers use the shortest text
/// that reads back to the same value, so applying the text to any base
/// yields a config with the same text.
std::string config_text(const ExperimentConfig& config);

/// Convenience: paper_scenario() + apply_config(load_file(path)).
ExperimentConfig experiment_from_file(const std::string& path);

}  // namespace pcap::cluster
