#ifndef CCSIM_CONFIG_FLAGS_H_
#define CCSIM_CONFIG_FLAGS_H_

// Command-line helpers shared by ccsim_run, ccserve and ccload.

#include <cstdint>
#include <span>
#include <string>
#include <variant>

#include "config/params.h"
#include "util/status.h"

namespace ccsim::config {

/// A command-line algorithm name and the protocol it selects.
struct AlgorithmChoice {
  const char* name;
  Algorithm algorithm;
  CachingMode caching;
};

/// The algorithm names the tools accept, in --list order.
extern const AlgorithmChoice kAlgorithmChoices[7];

/// Selects the algorithm named `name` (one of kAlgorithmChoices).
Status SelectAlgorithm(const std::string& name, AlgorithmParams* params);

/// True when `arg` is `name=VALUE`; stores VALUE in `*value`.
bool ParseValue(const char* arg, const char* name, std::string* value);

/// A `--name=N` flag that stores N in a field: doubles parse with atof,
/// ints with atoi, counts with strtoull.
struct NumberFlag {
  const char* name;
  std::variant<double*, int*, std::uint64_t*> field;
};

/// Stores `arg`'s value when it is one of `flags`; false otherwise.
bool ParseNumberFlag(const char* arg, std::span<const NumberFlag> flags);

/// Parses the structured fault flags: --spike=P:MS, --crash=NODE:AT:DOWN
/// and --partition=NODE:AT:DUR[:DIR][:hard] (the last two append a
/// window). False when `arg` is none of them; else `*status` says whether
/// its value parsed. ccserve parses its own --crash=AT:DOWN first.
bool ParseFaultFlag(const char* arg, FaultParams* fault, Status* status);
}  // namespace ccsim::config

#endif  // CCSIM_CONFIG_FLAGS_H_
