#ifndef CCSIM_CONFIG_FLAGS_H_
#define CCSIM_CONFIG_FLAGS_H_

// The command-line flags of ccsim_run, ccserve and ccload: one table
// (flags.cc) gives each flag's name, the tools that accept it, its value
// syntax, its help line and the field its value lands in. Each tool's
// --help and parser are generated from it.

#include <optional>
#include <string>
#include <vector>

#include "config/params.h"
#include "util/status.h"

namespace ccsim::config {

/// Selects the algorithm a command-line name (`2pl`, `cert-intra`, ...)
/// stands for.
Status SelectAlgorithm(const std::string& name, AlgorithmParams* params);

/// The tools; a flag's row names the ones that accept it.
enum Tool : unsigned { kCcsimRun = 1, kCcserve = 2, kCcload = 4 };

/// What a tool reads off its command line: the experiment, plus the
/// values that belong to the tool rather than to the model.
struct CommandLine {
  ExperimentConfig config;
  std::string algorithm = "2pl";
  std::string substrate = "sim";
  bool csv = false;
  bool list = false;
  bool help = false;
  int jobs = 0;  // 0 = runner::DefaultJobs()
  int chaos_soak = 0;
  std::vector<int> sweep_clients;
  /// Wall seconds: ccsim_run --substrate=real and ccload measure this
  /// long, ccserve exits after it (0 = at SIGINT/SIGTERM).
  double duration_s = 0.0;
  /// Wall-clock warmup (unset = 1 s); ccsim_run's DES warmup too when set.
  std::optional<double> warmup_s;
  /// ccsim_run --shards, ccload --threads; 0 = 1 per 8 clients, at least 2.
  int shards = 0;
  int port = 0;
  std::string bind_host;
  std::string port_file;
  std::string host = "127.0.0.1";
  /// ccload's global client-id slice [lo, hi); hi < 0 = the population.
  int lo = 0;
  int hi = -1;
};

/// Parses `argv` for `tool` into `*out`, starting from the tool's
/// defaults, then finishes the configuration: selects the algorithm, turns
/// recovery on when a fault flag needs it (FaultParams::NeedsRecovery)
/// and, for ccserve and ccload, strips the simulated hardware costs
/// (RawSpeedConfig) and validates. Returns -1 when the tool should run;
/// otherwise the exit code to return at once: 0 after --help or --list
/// printed, 2 after an error message on stderr.
int ParseCommandLine(Tool tool, int argc, const char* const* argv,
                     CommandLine* out);

/// Prints `tool`'s --help text: its title, then one entry per row of the
/// table that names the tool, in table order.
void PrintUsage(Tool tool);

}  // namespace ccsim::config

#endif  // CCSIM_CONFIG_FLAGS_H_
