#include "config/flags.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <type_traits>
#include <variant>

namespace ccsim::config {
namespace {

/// Where a plain row's value lands. A bool is a switch: it takes no value.
using Field = std::variant<bool*, int*, double*, std::uint64_t*,
                           std::string*, std::optional<double>*>;

/// One command-line flag. A row either names its field (`field`) or
/// parses a structured value itself (`parse`).
struct Flag {
  const char* name;
  unsigned tools;
  /// Value syntax for --help; nullptr for a switch.
  const char* value;
  /// Help text; '\n' starts a continuation line.
  const char* help;
  Field (*field)(CommandLine&);
  Status (*parse)(std::string_view value, CommandLine* out);
};

/// A command-line algorithm name and the protocol it selects, in --list
/// order.
struct AlgorithmChoice {
  const char* name;
  Algorithm algorithm;
  CachingMode caching;
};
const AlgorithmChoice kAlgorithmChoices[] = {
    {"2pl", Algorithm::kTwoPhaseLocking, CachingMode::kInterTransaction},
    {"2pl-intra", Algorithm::kTwoPhaseLocking,
     CachingMode::kIntraTransaction},
    {"cert", Algorithm::kCertification, CachingMode::kInterTransaction},
    {"cert-intra", Algorithm::kCertification,
     CachingMode::kIntraTransaction},
    {"callback", Algorithm::kCallbackLocking,
     CachingMode::kInterTransaction},
    {"no-wait", Algorithm::kNoWaitLocking, CachingMode::kInterTransaction},
    {"no-wait-notify", Algorithm::kNoWaitNotify,
     CachingMode::kInterTransaction},
};

/// The one number parser behind every flag: `text` must be consumed
/// whole and fit `T` (a double must be finite). The error names `flag`.
template <typename T>
Status ParseNumber(std::string_view flag, std::string_view text, T* out) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc::result_out_of_range) {
    return Status::InvalidArgument(std::string(flag) + ": '" +
                                   std::string(text) + "' is out of range");
  }
  bool finite = true;
  if constexpr (std::is_floating_point_v<T>) {
    finite = std::isfinite(value);
  }
  if (ec != std::errc() || ptr != end || !finite) {
    const char* const wants = std::is_floating_point_v<T> ? "a number"
                              : std::is_signed_v<T>       ? "an integer"
                                                    : "a non-negative integer";
    return Status::InvalidArgument(std::string(flag) + " wants " + wants +
                                   ", got '" + std::string(text) + "'");
  }
  *out = value;
  return Status::OK();
}

/// Parses `value` as colon-separated numbers, one per field; `usage` is
/// the error when the colons do not match.
template <typename... T>
Status ParseFields(const char* flag, const char* usage,
                   std::string_view value, T*... fields) {
  if (std::count(value.begin(), value.end(), ':') != sizeof...(T) - 1) {
    return Status::InvalidArgument(usage);
  }
  Status status;
  const auto next = [&value](auto* field, const char* name) {
    const std::size_t colon = value.find(':');
    const Status st = ParseNumber(name, value.substr(0, colon), field);
    value.remove_prefix(colon == std::string_view::npos ? value.size()
                                                        : colon + 1);
    return st;
  };
  ((status = status.ok() ? next(fields, flag) : status), ...);
  return status;
}

Status ParseXactSize(std::string_view value, CommandLine* out) {
  TransactionParams& t = out->config.transaction;
  return ParseFields("--xact-size", "--xact-size wants MIN:MAX", value,
                     &t.min_xact_size, &t.max_xact_size);
}

Status ParseObjectSize(std::string_view value, CommandLine* out) {
  std::vector<int>& sizes = out->config.database.object_size;
  sizes = {0};
  return ParseNumber("--object-size", value, &sizes[0]);
}

Status ParseSpike(std::string_view value, CommandLine* out) {
  FaultParams& f = out->config.fault;
  return ParseFields("--spike", "--spike wants P:MS", value,
                     &f.delay_spike_probability, &f.delay_spike_ms);
}

Status ParseCrash(std::string_view value, CommandLine* out) {
  FaultParams::CrashEvent crash;
  CCSIM_RETURN_NOT_OK(ParseFields("--crash", "--crash wants NODE:AT:DOWN",
                                  value, &crash.node, &crash.at_s,
                                  &crash.downtime_s));
  out->config.fault.crashes.push_back(crash);
  return Status::OK();
}

/// ccserve's --crash: a server crashes only itself, so it takes no NODE.
Status ParseServerCrash(std::string_view value, CommandLine* out) {
  FaultParams::CrashEvent crash;
  crash.node = -1;  // the server
  CCSIM_RETURN_NOT_OK(ParseFields("--crash", "--crash wants AT:DOWN", value,
                                  &crash.at_s, &crash.downtime_s));
  out->config.fault.crashes.push_back(crash);
  return Status::OK();
}

Status ParsePartition(std::string_view value, CommandLine* out) {
  // NODE:AT:DUR, then the optional :DIR and :hard tokens.
  std::size_t end = 0;
  for (int colons = 0; end < value.size(); ++end) {
    if (value[end] == ':' && ++colons == 3) {
      break;
    }
  }
  FaultParams::PartitionEvent window;
  CCSIM_RETURN_NOT_OK(ParseFields(
      "--partition", "--partition wants NODE:AT:DUR[:DIR][:hard]",
      value.substr(0, end), &window.node, &window.at_s, &window.duration_s));
  static const std::string_view kDirections[] = {"both", "in", "out"};
  for (std::string_view rest = value.substr(end); !rest.empty();) {
    rest.remove_prefix(1);  // the ':'
    const std::string_view token = rest.substr(0, rest.find(':'));
    rest.remove_prefix(token.size());
    const auto* dir = std::find(std::begin(kDirections),
                                std::end(kDirections), token);
    if (token == "hard") {
      window.hard = true;
    } else if (dir != std::end(kDirections)) {
      window.direction = static_cast<int>(dir - std::begin(kDirections));
    } else {
      return Status::InvalidArgument(
          "--partition DIR wants both|in|out (optionally followed by "
          ":hard)");
    }
  }
  out->config.fault.partitions.push_back(window);
  return Status::OK();
}

Status ParseSubstrate(std::string_view value, CommandLine* out) {
  if (value != "sim" && value != "real") {
    return Status::InvalidArgument("--substrate wants sim or real");
  }
  out->substrate = value;
  return Status::OK();
}

/// A positive count, or `usage` as the error.
Status ParsePositive(std::string_view value, int* out, const char* usage) {
  if (!ParseNumber("", value, out).ok() || *out < 1) {
    return Status::InvalidArgument(usage);
  }
  return Status::OK();
}

Status ParseJobs(std::string_view value, CommandLine* out) {
  return ParsePositive(value, &out->jobs, "--jobs wants a positive integer");
}

Status ParseChaosSoak(std::string_view value, CommandLine* out) {
  return ParsePositive(value, &out->chaos_soak,
                       "--chaos-soak wants a positive seed count");
}

Status ParseSweepClients(std::string_view value, CommandLine* out) {
  const char* const usage = "--sweep-clients wants e.g. 2,10,30,50";
  while (!value.empty()) {
    const std::size_t comma = value.find(',');
    int clients = 0;
    CCSIM_RETURN_NOT_OK(ParsePositive(value.substr(0, comma), &clients, usage));
    out->sweep_clients.push_back(clients);
    value.remove_prefix(comma == std::string_view::npos ? value.size()
                                                        : comma + 1);
  }
  return out->sweep_clients.empty() ? Status::InvalidArgument(usage)
                                    : Status::OK();
}

constexpr unsigned kAllTools = kCcsimRun | kCcserve | kCcload;

#define FIELD(path) [](CommandLine& c) -> Field { return &c.path; }, nullptr

// The flag table. --help lists a tool's rows in this order.
const Flag kFlags[] = {
    // --- the experiment: paper Tables 1-3 ---
    {"--algorithm", kAllTools, "NAME",
     "2pl | 2pl-intra | cert | cert-intra | callback |\n"
     "no-wait | no-wait-notify",
     FIELD(algorithm)},
    {"--clients", kAllTools, "N", "client workstations (the whole population)",
     FIELD(config.system.num_clients)},
    {"--locality", kCcsimRun | kCcload, "P", "InterXactLoc in [0,1]",
     FIELD(config.transaction.inter_xact_loc)},
    {"--prob-write", kCcsimRun | kCcload, "P", "ProbWrite in [0,1]",
     FIELD(config.transaction.prob_write)},
    {"--xact-size", kCcsimRun, "MIN:MAX",
     "ReadObject operations per transaction", nullptr, ParseXactSize},
    {"--object-size", kCcsimRun, "N", "atoms per object", nullptr,
     ParseObjectSize},
    {"--cluster-factor", kCcsimRun, "P", "sequential-placement probability",
     FIELD(config.database.cluster_factor)},
    {"--update-delay", kCcsimRun, "S", "mean think time before an update",
     FIELD(config.transaction.update_delay_s)},
    {"--internal-delay", kCcsimRun, "S", "mean think time per loop pass",
     FIELD(config.transaction.internal_delay_s)},
    {"--external-delay", kCcsimRun, "S", "mean think time between transactions",
     FIELD(config.transaction.external_delay_s)},
    {"--server-mips", kCcsimRun, "M", "server CPU speed",
     FIELD(config.system.server_mips)},
    {"--client-mips", kCcsimRun, "M", "client CPU speed",
     FIELD(config.system.client_mips)},
    {"--net-delay-ms", kCcsimRun, "D", "mean network delay per packet",
     FIELD(config.system.net_delay_ms)},
    {"--msg-cost", kCcsimRun, "INSTR", "CPU instructions per packet",
     FIELD(config.system.msg_cost_instr)},
    {"--data-disks", kCcsimRun, "N", "server data disks",
     FIELD(config.system.num_data_disks)},
    {"--log-disks", kCcsimRun, "N", "server log disks",
     FIELD(config.system.num_log_disks)},
    {"--cache-pages", kCcsimRun, "N", "client cache size",
     FIELD(config.system.client_cache_pages)},
    {"--buffer-pages", kCcsimRun | kCcserve, "N", "server buffer pool size",
     FIELD(config.system.server_buffer_pages)},
    {"--mpl", kCcsimRun | kCcserve, "N", "server multiprogramming level",
     FIELD(config.system.mpl)},

    // --- run control ---
    {"--seed", kAllTools, "N", "RNG seed", FIELD(config.control.seed)},
    {"--warmup", kCcsimRun | kCcload, "S",
     "warmup before the stats window (default 30 sim s;\n"
     "on the wire 1 wall s)",
     FIELD(warmup_s)},
    {"--commits", kCcsimRun, "N", "commits to measure",
     FIELD(config.control.target_commits)},
    {"--max-seconds", kCcsimRun, "S", "cap on the measured simulated seconds",
     FIELD(config.control.max_measure_seconds)},
    {"--duration", kAllTools, "S",
     "measured wall seconds on the wire (ccsim_run 5,\n"
     "ccload 10); ccserve stops after S (default: at a signal)",
     FIELD(duration_s)},

    // --- faults (DESIGN §5c) ---
    {"--drop", kAllTools, "P", "message (on the wire: frame) drop probability",
     FIELD(config.fault.drop_probability)},
    {"--dup", kAllTools, "P", "message (on the wire: frame) dup probability",
     FIELD(config.fault.duplicate_probability)},
    {"--spike", kAllTools, "P:MS", "delay-spike probability and size",
     nullptr, ParseSpike},
    {"--crash", kCcsimRun | kCcload, "NODE:AT:DOWN",
     "crash NODE (-1 = server) at AT s for DOWN s; a client\n"
     "restarts with an empty cache (repeatable)",
     nullptr, ParseCrash},
    {"--crash", kCcserve, "AT:DOWN",
     "crash this server at AT s for DOWN s, severing its\n"
     "connections, then replay the log (repeatable)",
     nullptr, ParseServerCrash},
    {"--partition", kAllTools, "NODE:AT:DUR[:DIR][:hard]",
     "cut client NODE's link at AT s for DUR s; DIR = both |\n"
     "in (client->server) | out; 'hard' also kills its TCP\n"
     "connection (real substrate). Repeatable",
     nullptr, ParsePartition},
    {"--torn-write", kCcsimRun | kCcserve, "P",
     "per-log-force torn-write probability",
     FIELD(config.fault.torn_write_probability)},
    {"--bit-flip", kCcsimRun | kCcserve, "P",
     "per-log-force bit-flip probability",
     FIELD(config.fault.bit_flip_probability)},
    {"--queue-limit", kCcsimRun, "N", "bound the ready queue (shed beyond)",
     FIELD(config.fault.server_queue_limit)},
    {"--retry-budget", kCcsimRun, "N", "per-attempt retransmission budget",
     FIELD(config.fault.retry_budget)},
    {"--retry-jitter", kCcsimRun, "P", "randomize RPC timeouts by +/- P/2",
     FIELD(config.fault.retry_jitter)},

    // --- recovery and checking ---
    {"--recovery", kAllTools, nullptr,
     "recovery layer without faults; --drop, --dup, --crash,\n"
     "--partition and the overload knobs imply it. ccserve\n"
     "and ccload must agree",
     FIELD(config.fault.recovery_enabled)},
    {"--rpc-timeout-ms", kCcsimRun, "D", "initial RPC reply timeout",
     FIELD(config.fault.rpc_timeout_ms)},
    {"--lease-ms", kCcsimRun, "D", "lease on asynchronously kept cache state",
     FIELD(config.fault.lease_ms)},
    {"--idle-timeout-ms", kCcsimRun, "D",
     "server aborts transactions idle this long",
     FIELD(config.fault.xact_idle_timeout_ms)},
    {"--check", kCcsimRun | kCcserve, nullptr,
     "consistency oracle: serializability + coherence\n"
     "audits; a violation aborts with a cycle dump",
     FIELD(config.checker.enabled)},

    // --- the substrate and the wire ---
    {"--substrate", kCcsimRun, "NAME",
     "sim (default; discrete-event) | real (threads +\n"
     "TCP loopback, wall-clock paced)",
     nullptr, ParseSubstrate},
    {"--shards", kCcsimRun, "N",
     "real-substrate load threads (default: 1 per 8\n"
     "clients, at least 2)",
     FIELD(shards)},
    {"--threads", kCcload, "N",
     "event-loop shards (default: 1 per 8 clients, at least 2)",
     FIELD(shards)},
    {"--host", kCcload, "H", "server hostname or IPv4 (default 127.0.0.1)",
     FIELD(host)},
    {"--port", kCcserve | kCcload, "N", "TCP port (ccserve: 0 = ephemeral)",
     FIELD(port)},
    {"--bind", kCcserve, "HOST", "bind address (default: all interfaces)",
     FIELD(bind_host)},
    {"--port-file", kCcserve | kCcload, "PATH",
     "ccserve writes its port to PATH, ccload reads it",
     FIELD(port_file)},
    {"--lo", kCcload, "N", "first client id this process drives",
     FIELD(lo)},
    {"--hi", kCcload, "N", "one past the last (default: the population)",
     FIELD(hi)},

    // --- ccsim_run's drivers and output ---
    {"--sweep-clients", kCcsimRun, "LIST",
     "one CSV row per client count (e.g. 2,10,30,50)", nullptr,
     ParseSweepClients},
    {"--jobs", kCcsimRun, "N",
     "worker threads for sweeps and soaks (default:\n"
     "CCSIM_JOBS, else all cores)",
     nullptr, ParseJobs},
    {"--chaos-soak", kCcsimRun, "N",
     "N seeded fault cocktails (seeds --seed..) x five\n"
     "protocols, oracle on; a violation prints the seed\n"
     "and its plan (real substrate: sequential, use few)",
     nullptr, ParseChaosSoak},
    {"--csv", kCcsimRun, nullptr, "one-line machine-readable output",
     FIELD(csv)},
    {"--list", kCcsimRun, nullptr, "list algorithm names and exit",
     FIELD(list)},
    {"--help", kAllTools, nullptr, "this text", FIELD(help)},
};

#undef FIELD

/// Stores `arg` through `flag` when it names that flag (`--name` for a
/// switch, `--name=VALUE` otherwise). False when it names another.
bool Apply(const Flag& flag, std::string_view arg, CommandLine* out,
           Status* status) {
  const std::string_view name = flag.name;
  if (!arg.starts_with(name)) {
    return false;
  }
  arg.remove_prefix(name.size());
  if (flag.value == nullptr) {
    if (arg.empty()) {
      *std::get<bool*>(flag.field(*out)) = true;
    }
    return arg.empty();
  }
  if (!arg.starts_with('=')) {
    return false;
  }
  const std::string_view value = arg.substr(1);
  if (flag.parse != nullptr) {
    *status = flag.parse(value, out);
    return true;
  }
  std::visit(
      [&](auto* field) {
        using T = std::remove_pointer_t<decltype(field)>;
        if constexpr (std::is_same_v<T, std::string>) {
          *field = value;
        } else if constexpr (std::is_same_v<T, std::optional<double>>) {
          double number = 0.0;
          *status = ParseNumber(name, value, &number);
          *field = number;
        } else if constexpr (!std::is_same_v<T, bool>) {
          *status = ParseNumber(name, value, field);
        }
      },
      flag.field(*out));
  return true;
}

/// The steps every tool takes between its flags and its run.
int Finish(Tool tool, CommandLine* out) {
  ExperimentConfig& cfg = out->config;
  if (const Status st = SelectAlgorithm(out->algorithm, &cfg.algorithm);
      !st.ok()) {
    std::fprintf(stderr, "%s%s\n", st.message().c_str(),
                 tool == kCcsimRun ? " (see --list)" : "");
    return 2;
  }
  cfg.fault.recovery_enabled |= cfg.fault.NeedsRecovery();
  if (tool == kCcsimRun) {
    // The DES warmup is simulated time; a set --warmup covers both kinds.
    cfg.control.warmup_seconds =
        out->warmup_s.value_or(cfg.control.warmup_seconds);
    return -1;  // its runners validate
  }
  cfg = RawSpeedConfig(cfg);
  if (const Status st = cfg.Validate(); !st.ok()) {
    std::fprintf(stderr, "invalid configuration: %s\n",
                 st.ToString().c_str());
    return 2;
  }
  return -1;
}

}  // namespace

Status SelectAlgorithm(const std::string& name, AlgorithmParams* params) {
  for (const AlgorithmChoice& choice : kAlgorithmChoices) {
    if (name == choice.name) {
      params->algorithm = choice.algorithm;
      params->caching = choice.caching;
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown algorithm '" + name + "'");
}

void PrintUsage(Tool tool) {
  std::printf(
      "%s\n\n",
      tool == kCcsimRun
          ? "ccsim_run — run one client/server cache-consistency simulation"
      : tool == kCcserve
          ? "ccserve — real TCP page server for the five consistency "
            "protocols"
          : "ccload — TCP load generator for ccserve");
  constexpr int kColumn = 24;
  for (const Flag& flag : kFlags) {
    if ((flag.tools & tool) == 0) {
      continue;
    }
    const std::string left =
        flag.value == nullptr ? flag.name
                              : std::string(flag.name) + "=" + flag.value;
    std::printf("  %-*s", kColumn, left.c_str());
    if (left.size() >= kColumn) {
      std::printf("\n  %-*s", kColumn, "");
    }
    const char* line = flag.help;
    for (const char* end; (end = std::strchr(line, '\n')) != nullptr;
         line = end + 1) {
      std::printf("%.*s\n  %-*s", static_cast<int>(end - line), line,
                  kColumn, "");
    }
    std::printf("%s\n", line);
  }
}

int ParseCommandLine(Tool tool, int argc, const char* const* argv,
                     CommandLine* out) {
  *out = CommandLine();
  out->config = BaseConfig();
  out->duration_s = tool == kCcsimRun ? 5.0 : tool == kCcload ? 10.0 : 0.0;
  for (int i = 1; i < argc; ++i) {
    Status status;
    if (std::none_of(std::begin(kFlags), std::end(kFlags),
                     [&](const Flag& flag) {
                       return (flag.tools & tool) != 0 &&
                              Apply(flag, argv[i], out, &status);
                     })) {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", argv[i]);
      return 2;
    }
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.message().c_str());
      return 2;
    }
    if (out->help) {
      PrintUsage(tool);
      return 0;
    }
    if (out->list) {
      for (const AlgorithmChoice& choice : kAlgorithmChoices) {
        std::printf("%s\n", choice.name);
      }
      return 0;
    }
  }
  return Finish(tool, out);
}

}  // namespace ccsim::config
