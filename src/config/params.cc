#include "config/params.h"

#include <algorithm>

namespace ccsim::config {

const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kTwoPhaseLocking:
      return "two-phase-locking";
    case Algorithm::kCertification:
      return "certification";
    case Algorithm::kCallbackLocking:
      return "callback-locking";
    case Algorithm::kNoWaitLocking:
      return "no-wait-locking";
    case Algorithm::kNoWaitNotify:
      return "no-wait-notify";
  }
  return "unknown";
}

const char* CachingModeName(CachingMode mode) {
  switch (mode) {
    case CachingMode::kIntraTransaction:
      return "intra";
    case CachingMode::kInterTransaction:
      return "inter";
  }
  return "unknown";
}

std::string AlgorithmLabel(Algorithm algorithm, CachingMode mode) {
  switch (algorithm) {
    case Algorithm::kTwoPhaseLocking:
      return mode == CachingMode::kIntraTransaction ? "2PL-intra"
                                                    : "2PL-inter";
    case Algorithm::kCertification:
      return mode == CachingMode::kIntraTransaction ? "cert-intra"
                                                    : "cert-inter";
    case Algorithm::kCallbackLocking:
      return "callback";
    case Algorithm::kNoWaitLocking:
      return "no-wait";
    case Algorithm::kNoWaitNotify:
      return "no-wait+notify";
  }
  return "unknown";
}

namespace {

/// True when two half-open windows [a, a+da) and [b, b+db) intersect.
bool WindowsOverlap(double a, double da, double b, double db) {
  return a < b + db && b < a + da;
}

Status ValidateTransactionType(const TransactionParams& transaction) {
  if (transaction.min_xact_size < 1 ||
      transaction.max_xact_size < transaction.min_xact_size) {
    return Status::InvalidArgument("bad transaction size range");
  }
  if (transaction.prob_write < 0.0 || transaction.prob_write > 1.0) {
    return Status::InvalidArgument("prob_write must be in [0,1]");
  }
  if (transaction.inter_xact_loc < 0.0 || transaction.inter_xact_loc > 1.0) {
    return Status::InvalidArgument("inter_xact_loc must be in [0,1]");
  }
  if (transaction.inter_xact_set_size < 0) {
    return Status::InvalidArgument("inter_xact_set_size must be >= 0");
  }
  if (transaction.inter_xact_loc > 0.0 &&
      transaction.inter_xact_set_size == 0) {
    return Status::InvalidArgument(
        "inter_xact_loc > 0 requires a non-empty InterXactSet");
  }
  if (transaction.update_delay_s < 0 || transaction.internal_delay_s < 0 ||
      transaction.external_delay_s < 0) {
    return Status::InvalidArgument("think times must be >= 0");
  }
  return Status::OK();
}

}  // namespace

Status ExperimentConfig::Validate() const {
  if (database.num_classes < 1) {
    return Status::InvalidArgument("num_classes must be >= 1");
  }
  if (database.pages_per_class.empty() || database.object_size.empty()) {
    return Status::InvalidArgument(
        "pages_per_class and object_size must be non-empty");
  }
  for (int c = 0; c < database.num_classes; ++c) {
    if (database.PagesInClass(c) < 1) {
      return Status::InvalidArgument("every class needs >= 1 page");
    }
    if (database.ObjectSizeInClass(c) < 1 ||
        database.ObjectSizeInClass(c) > database.PagesInClass(c)) {
      return Status::InvalidArgument(
          "object size must be in [1, pages-in-class]");
    }
  }
  if (database.cluster_factor < 0.0 || database.cluster_factor > 1.0) {
    return Status::InvalidArgument("cluster_factor must be in [0,1]");
  }
  int max_working_set = 0;
  for (const MixEntry& entry : EffectiveMix()) {
    CCSIM_RETURN_NOT_OK(ValidateTransactionType(entry.params));
    if (entry.weight <= 0.0) {
      return Status::InvalidArgument("mix weights must be positive");
    }
    max_working_set =
        std::max(max_working_set, entry.params.max_xact_size *
                                      database.ObjectSizeInClass(0));
  }
  if (system.num_clients < 1) {
    return Status::InvalidArgument("need at least one client");
  }
  if (system.num_client_cpus < 1 || system.num_server_cpus < 1) {
    return Status::InvalidArgument("need at least one CPU per machine");
  }
  if (system.client_mips <= 0 || system.server_mips <= 0) {
    return Status::InvalidArgument("MIPS ratings must be positive");
  }
  if (system.num_data_disks < 1) {
    return Status::InvalidArgument("need at least one data disk");
  }
  if (system.num_log_disks < 1 && algorithm.enable_log_manager) {
    return Status::InvalidArgument("log manager enabled but no log disks");
  }
  if (system.client_cache_pages < max_working_set) {
    // The model requires that one transaction's working set fits in the
    // client cache (the paper sizes CacheSize >= MaxXactSize for the same
    // reason: updates must be able to stay cached until commit).
    return Status::InvalidArgument(
        "client cache must hold at least one transaction's working set");
  }
  if (system.server_buffer_pages < 1) {
    return Status::InvalidArgument("server buffer pool must be >= 1 page");
  }
  if (system.seek_low_ms < 0 || system.seek_high_ms < system.seek_low_ms) {
    return Status::InvalidArgument("bad seek time range");
  }
  if (system.page_size_bytes < 1 || system.packet_size_bytes < 1) {
    return Status::InvalidArgument("page/packet sizes must be positive");
  }
  if (system.mpl < 1) {
    return Status::InvalidArgument("MPL must be >= 1");
  }
  if ((algorithm.algorithm == Algorithm::kCallbackLocking ||
       algorithm.algorithm == Algorithm::kNoWaitLocking ||
       algorithm.algorithm == Algorithm::kNoWaitNotify) &&
      algorithm.caching == CachingMode::kIntraTransaction) {
    return Status::InvalidArgument(
        "callback/no-wait locking are inherently inter-transaction");
  }
  if (control.warmup_seconds < 0 || control.max_measure_seconds <= 0) {
    return Status::InvalidArgument("bad measurement window");
  }
  if (fault.drop_probability < 0.0 || fault.drop_probability >= 1.0 ||
      fault.duplicate_probability < 0.0 ||
      fault.duplicate_probability >= 1.0 ||
      fault.delay_spike_probability < 0.0 ||
      fault.delay_spike_probability > 1.0) {
    return Status::InvalidArgument("fault probabilities must be in [0,1)");
  }
  if (fault.delay_spike_ms < 0.0) {
    return Status::InvalidArgument("delay_spike_ms must be >= 0");
  }
  if (fault.torn_write_probability < 0.0 ||
      fault.torn_write_probability >= 1.0 ||
      fault.bit_flip_probability < 0.0 || fault.bit_flip_probability >= 1.0) {
    return Status::InvalidArgument(
        "storage fault probabilities must be in [0,1)");
  }
  // Fault windows must close before the nominal end of the run; a window
  // that dangles past the horizon (or starts after it) is almost always a
  // units mistake and would silently test nothing.
  const double run_end_s = control.warmup_seconds + control.max_measure_seconds;
  for (const FaultParams::CrashEvent& crash : fault.crashes) {
    if (crash.node < -1 || crash.node >= system.num_clients) {
      return Status::InvalidArgument(
          "crash node must be -1 (server) or a client id");
    }
    if (crash.at_s < 0.0 || crash.downtime_s <= 0.0) {
      return Status::InvalidArgument("bad crash schedule entry");
    }
    if (crash.at_s + crash.downtime_s > run_end_s) {
      return Status::InvalidArgument(
          "crash window extends past the end of the run "
          "(warmup + max_measure_seconds)");
    }
  }
  for (std::size_t i = 0; i < fault.crashes.size(); ++i) {
    for (std::size_t j = i + 1; j < fault.crashes.size(); ++j) {
      const FaultParams::CrashEvent& a = fault.crashes[i];
      const FaultParams::CrashEvent& b = fault.crashes[j];
      if (a.node == b.node &&
          WindowsOverlap(a.at_s, a.downtime_s, b.at_s, b.downtime_s)) {
        return Status::InvalidArgument(
            "overlapping crash windows on the same node");
      }
    }
  }
  for (const FaultParams::PartitionEvent& part : fault.partitions) {
    if (part.node < 0 || part.node >= system.num_clients) {
      return Status::InvalidArgument(
          "partition node must be a client id (partitions cut the "
          "client/server link)");
    }
    if (part.at_s < 0.0 || part.duration_s <= 0.0) {
      return Status::InvalidArgument("bad partition schedule entry");
    }
    if (part.direction < 0 || part.direction > 2) {
      return Status::InvalidArgument(
          "partition direction must be 0 (both), 1 (to-server), or "
          "2 (from-server)");
    }
    if (part.at_s + part.duration_s > run_end_s) {
      return Status::InvalidArgument(
          "partition window extends past the end of the run "
          "(warmup + max_measure_seconds)");
    }
  }
  for (std::size_t i = 0; i < fault.partitions.size(); ++i) {
    for (std::size_t j = i + 1; j < fault.partitions.size(); ++j) {
      const FaultParams::PartitionEvent& a = fault.partitions[i];
      const FaultParams::PartitionEvent& b = fault.partitions[j];
      if (a.node == b.node &&
          WindowsOverlap(a.at_s, a.duration_s, b.at_s, b.duration_s)) {
        return Status::InvalidArgument(
            "overlapping partition windows on the same node");
      }
    }
  }
  if (fault.server_queue_limit < 0) {
    return Status::InvalidArgument("server_queue_limit must be >= 0");
  }
  if (fault.retry_budget < 0) {
    return Status::InvalidArgument("retry_budget must be >= 0");
  }
  if (fault.retry_jitter < 0.0 || fault.retry_jitter > 1.0) {
    return Status::InvalidArgument("retry_jitter must be in [0,1]");
  }
  if (fault.NeedsRecovery() && !fault.recovery_enabled) {
    return Status::InvalidArgument(
        "message loss/duplication/crashes/partitions and queue limits / "
        "retry budgets / jitter require fault.recovery_enabled");
  }
  if (fault.recovery_enabled) {
    if (fault.rpc_timeout_ms <= 0.0 ||
        fault.rpc_timeout_cap_ms < fault.rpc_timeout_ms) {
      return Status::InvalidArgument("bad RPC timeout range");
    }
    if (fault.max_rpc_retries < 1) {
      return Status::InvalidArgument("max_rpc_retries must be >= 1");
    }
    if (fault.lease_ms < 0.0 || fault.xact_idle_timeout_ms < 0.0) {
      return Status::InvalidArgument("lease/idle timeouts must be >= 0");
    }
  }
  return Status::OK();
}

ExperimentConfig BaseConfig() {
  ExperimentConfig cfg;
  // Every field below mirrors Table 5 of the paper.
  cfg.database.num_classes = 40;
  cfg.database.pages_per_class = {50};
  cfg.database.object_size = {1};
  cfg.database.cluster_factor = 1.0;
  cfg.transaction.min_xact_size = 4;
  cfg.transaction.max_xact_size = 12;
  cfg.transaction.prob_write = 0.2;
  cfg.transaction.update_delay_s = 0.0;
  cfg.transaction.internal_delay_s = 0.0;
  cfg.transaction.external_delay_s = 1.0;
  cfg.transaction.inter_xact_set_size = 20;
  cfg.transaction.inter_xact_loc = 0.25;
  cfg.system.net_delay_ms = 2.0;
  cfg.system.packet_size_bytes = 4096;
  cfg.system.msg_cost_instr = 5000;
  cfg.system.num_clients = 10;
  cfg.system.num_client_cpus = 1;
  cfg.system.client_mips = 1.0;
  cfg.system.num_server_cpus = 1;
  cfg.system.server_mips = 2.0;
  cfg.system.num_data_disks = 2;
  cfg.system.num_log_disks = 1;
  cfg.system.client_cache_pages = 100;
  cfg.system.server_buffer_pages = 400;
  cfg.system.seek_low_ms = 0.0;
  cfg.system.seek_high_ms = 44.0;
  cfg.system.disk_transfer_ms = 2.0;
  cfg.system.page_size_bytes = 4096;
  cfg.system.init_disk_cost_instr = 5000;
  cfg.system.server_proc_page_instr = 10000;
  cfg.system.client_proc_page_instr = 20000;
  cfg.system.mpl = 50;
  return cfg;
}

ExperimentConfig AclVerificationConfig() {
  ExperimentConfig cfg;
  // Table 4: an approximation of the ACL centralized-DBMS setting. The
  // client/server machinery is neutralized: zero network delay and message
  // cost, zero client CPU cost; a 12-page client cache (= MaxXactSize) so
  // updates are deferred to commit; a 1-page server buffer so every dirty
  // page is forced to disk at commit; log manager disabled.
  cfg.database.num_classes = 2;
  cfg.database.pages_per_class = {500};
  cfg.database.object_size = {1};
  cfg.database.cluster_factor = 0.0;
  cfg.transaction.min_xact_size = 4;
  cfg.transaction.max_xact_size = 12;
  cfg.transaction.prob_write = 0.25;
  cfg.transaction.update_delay_s = 0.0;
  cfg.transaction.internal_delay_s = 0.0;
  cfg.transaction.external_delay_s = 1.0;
  cfg.transaction.inter_xact_set_size = 0;
  cfg.transaction.inter_xact_loc = 0.0;
  cfg.system.net_delay_ms = 0.0;
  cfg.system.packet_size_bytes = 4096;
  cfg.system.msg_cost_instr = 0;
  cfg.system.num_clients = 200;
  cfg.system.num_client_cpus = 1;
  cfg.system.client_mips = 1.0;
  cfg.system.num_server_cpus = 1;
  cfg.system.server_mips = 1.0;
  cfg.system.num_data_disks = 2;
  cfg.system.num_log_disks = 1;  // idle: log manager disabled below
  cfg.system.client_cache_pages = 12;
  cfg.system.server_buffer_pages = 1;
  cfg.system.seek_low_ms = 35.0;
  cfg.system.seek_high_ms = 35.0;
  cfg.system.disk_transfer_ms = 0.0;
  cfg.system.page_size_bytes = 4096;
  cfg.system.init_disk_cost_instr = 0;
  cfg.system.server_proc_page_instr = 15000;
  cfg.system.client_proc_page_instr = 0;
  cfg.system.mpl = 25;
  cfg.algorithm.caching = CachingMode::kIntraTransaction;
  cfg.algorithm.enable_log_manager = false;
  return cfg;
}

ExperimentConfig RawSpeedConfig(ExperimentConfig config) {
  config.system.net_delay_ms = 0.0;
  config.system.msg_cost_instr = 0.0;
  config.system.seek_low_ms = 0.0;
  config.system.seek_high_ms = 0.0;
  config.system.disk_transfer_ms = 0.0;
  config.system.init_disk_cost_instr = 0.0;
  config.system.server_proc_page_instr = 0.0;
  config.system.client_proc_page_instr = 0.0;
  return config;
}

}  // namespace ccsim::config
