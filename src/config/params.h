#ifndef CCSIM_CONFIG_PARAMS_H_
#define CCSIM_CONFIG_PARAMS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace ccsim::config {

/// Database parameters (paper Table 1).
struct DatabaseParams {
  /// NClasses: number of classes (relations) in the database.
  int num_classes = 40;
  /// NPages[i]: number of atoms (= disk pages) in class i. A single value
  /// replicated when all classes are the same size.
  std::vector<int> pages_per_class = {50};
  /// ObjectSize[i]: number of atoms per object in class i.
  std::vector<int> object_size = {1};
  /// ClusterFactor: probability that consecutive atoms of an object are
  /// stored sequentially on disk (sequential access skips the seek).
  double cluster_factor = 1.0;

  int PagesInClass(int cls) const {
    return pages_per_class[static_cast<std::size_t>(cls) %
                           pages_per_class.size()];
  }
  int ObjectSizeInClass(int cls) const {
    return object_size[static_cast<std::size_t>(cls) % object_size.size()];
  }
  std::int64_t TotalPages() const {
    std::int64_t total = 0;
    for (int c = 0; c < num_classes; ++c) {
      total += PagesInClass(c);
    }
    return total;
  }
};

/// Parameters for one transaction type (paper Table 2).
struct TransactionParams {
  /// MinXactSize / MaxXactSize: number of ReadObject operations, uniform.
  int min_xact_size = 4;
  int max_xact_size = 12;
  /// ProbWrite: probability that each atom of a read object is updated
  /// (the write set is always a subset of the read set).
  double prob_write = 0.2;
  /// UpdateDelay: mean think time between a ReadObject and its UpdateObject
  /// (seconds; exponential; 0 for batch workloads).
  double update_delay_s = 0.0;
  /// InternalDelay: mean think time after each loop pass (seconds).
  double internal_delay_s = 0.0;
  /// ExternalDelay: mean think time between transactions (seconds).
  double external_delay_s = 1.0;
  /// InterXactSetSize: number of recently-read objects forming the locality
  /// set shared by consecutive transactions.
  int inter_xact_set_size = 20;
  /// InterXactLoc: probability that a read comes from the InterXactSet.
  double inter_xact_loc = 0.25;
};

/// System parameters (paper Table 3).
struct SystemParams {
  /// NetDelay: mean network delay per packet (milliseconds, exponential).
  double net_delay_ms = 2.0;
  /// PacketSize: maximum bytes in a message body.
  int packet_size_bytes = 4096;
  /// MsgCost: instructions to send or receive one packet.
  double msg_cost_instr = 5000;
  /// NClients.
  int num_clients = 10;
  int num_client_cpus = 1;
  /// ClientMips: speed of each client CPU (MIPS).
  double client_mips = 1.0;
  int num_server_cpus = 1;
  double server_mips = 2.0;
  int num_data_disks = 2;
  int num_log_disks = 1;
  /// CacheSize: client cache capacity in pages.
  int client_cache_pages = 100;
  /// BufferSize: server buffer pool capacity in pages.
  int server_buffer_pages = 400;
  /// SeekLow/SeekHigh: uniform disk seek time bounds (milliseconds).
  double seek_low_ms = 0.0;
  double seek_high_ms = 44.0;
  /// DiskTran: transfer time per disk block (milliseconds).
  double disk_transfer_ms = 2.0;
  /// PageSize: disk block (and memory page) size in bytes.
  int page_size_bytes = 4096;
  /// InitDiskCost: instructions to initiate a disk access.
  double init_disk_cost_instr = 5000;
  /// ServerProcPage: instructions to process one page on the server.
  double server_proc_page_instr = 10000;
  /// ClientProcPage: instructions to process one page on the client.
  double client_proc_page_instr = 20000;
  /// MPL: maximum number of transactions active at the server.
  int mpl = 50;
};

/// The five cache consistency algorithms of the paper (§2).
enum class Algorithm {
  kTwoPhaseLocking,
  kCertification,
  kCallbackLocking,
  kNoWaitLocking,
  kNoWaitNotify,
};

/// Caching across transaction boundaries (inter) or only within a
/// transaction (intra). Applies to 2PL and certification; callback and
/// no-wait locking are inherently inter-transaction.
enum class CachingMode {
  kIntraTransaction,
  kInterTransaction,
};

const char* AlgorithmName(Algorithm algorithm);
const char* CachingModeName(CachingMode mode);

/// Short label like "2PL-inter" or "callback" for reports.
std::string AlgorithmLabel(Algorithm algorithm, CachingMode mode);

/// Algorithm selection plus design-choice knobs (§5 of DESIGN.md).
struct AlgorithmParams {
  Algorithm algorithm = Algorithm::kTwoPhaseLocking;
  CachingMode caching = CachingMode::kInterTransaction;
  /// Apply an exponential restart delay (mean = running average response
  /// time, the ACL convention) before re-running an aborted transaction.
  bool restart_delay = true;
  /// Callback locking ablation: also retain write locks across transactions
  /// (the paper retains read locks only).
  bool retain_write_locks = false;
  /// Notification ablation: send invalidations instead of updated copies
  /// (the paper propagates the updates).
  bool notify_invalidate = false;
  /// Notification ablation: broadcast committed updates to every client
  /// instead of only the clients the directory believes cache the pages
  /// (paper §6 names broadcast as the alternative that needs no
  /// server-side memory).
  bool notify_broadcast = false;
  /// Callback ablation: send a dedicated asynchronous message per evicted
  /// retained lock instead of piggybacking the notices on the next request.
  bool explicit_evict_notices = false;
  /// Disable the log manager (used by the ACL verification experiment).
  bool enable_log_manager = true;
  /// TEST ONLY: certification commits without backward validation. Exists
  /// to prove the consistency oracle catches a protocol that commits
  /// non-serializable histories; never set outside tests.
  bool test_skip_validation = false;
};

/// Run-time-optional consistency checking (src/check): the serializability
/// oracle plus the coherence invariant auditor. Off by default and strictly
/// pay-for-use: with `enabled` false every hook is a null-pointer branch
/// and the simulation is bit-identical to a build without the checker.
struct CheckerParams {
  bool enabled = false;
  /// Structural coherence audit cadence in commits (1 = audit at every
  /// commit), driven by the deterministic commit count.
  std::uint64_t audit_epoch_commits = 32;
};

/// Simulation run control (not a paper table; measurement methodology).
struct ControlParams {
  std::uint64_t seed = 1;
  /// Warmup: statistics reset after this many simulated seconds.
  double warmup_seconds = 30.0;
  /// Measurement ends after this many committed transactions
  /// (post-warmup) ...
  std::uint64_t target_commits = 3000;
  /// ... or after this much simulated measurement time, whichever first.
  double max_measure_seconds = 600.0;
};

/// Fault injection and failure recovery (robustness extension; not a paper
/// table). Everything defaults off: a default-constructed FaultParams leaves
/// the simulation bit-identical to a build without the fault subsystem.
struct FaultParams {
  // --- fault model (drawn per message by fault::FaultInjector) ---
  /// Probability that a message vanishes in transit.
  double drop_probability = 0.0;
  /// Probability that a message is delivered twice.
  double duplicate_probability = 0.0;
  /// Probability that a message suffers an extra delay spike.
  double delay_spike_probability = 0.0;
  /// Extra in-transit delay for spiked messages (milliseconds).
  double delay_spike_ms = 20.0;
  /// Scheduled crashes: `node` is -1 (the server) or a client id. The node
  /// is down — sending and receiving nothing — for `downtime_s` simulated
  /// seconds starting at `at_s`; a crashed server additionally replays its
  /// log before accepting traffic again.
  struct CrashEvent {
    int node = 0;
    double at_s = 0.0;
    double downtime_s = 1.0;
  };
  std::vector<CrashEvent> crashes;
  /// Scheduled partitions: the link between client `node` and the server is
  /// cut for `duration_s` seconds starting at `at_s`, then heals. Both ends
  /// stay up; the cut-off client degrades gracefully (leases expire, RPCs
  /// time out, in-flight commits resolve via unknown-outcome
  /// reconciliation). `direction` selects which half of the link dies:
  /// 0 = both, 1 = client->server only, 2 = server->client only.
  struct PartitionEvent {
    int node = 0;
    double at_s = 0.0;
    double duration_s = 1.0;
    int direction = 0;
    /// Hard partition: on the real substrate the TCP connection carrying
    /// `node` is additionally killed at window start (RST / mid-frame cut),
    /// exercising frame resync and the reconnect path. The DES substrate
    /// has no connections, so there a hard window behaves like a soft one.
    bool hard = false;
  };
  std::vector<PartitionEvent> partitions;
  /// Storage faults, drawn per commit log force: probability that the force
  /// first writes a torn record / that the record fails its checksum on the
  /// write-verify read-back. Either way the record is re-appended before the
  /// commit is acknowledged (extra log I/O, never lost committed work).
  double torn_write_probability = 0.0;
  double bit_flip_probability = 0.0;

  // --- survival machinery (timeouts, retries, leases, server-side GC) ---
  /// Master switch for the recovery layer: RPC timeouts with retransmission,
  /// duplicate suppression, commit revalidation, leases, and crashed-client
  /// GC. Off, the protocols assume a perfect substrate exactly as the paper
  /// does (and must: message loss without retries hangs a client forever).
  bool recovery_enabled = false;
  /// Initial RPC reply timeout; doubles per retransmission up to the cap.
  double rpc_timeout_ms = 200.0;
  double rpc_timeout_cap_ms = 5000.0;
  /// Retransmissions before the client gives up and aborts the attempt.
  int max_rpc_retries = 10;
  /// Lease on trust in asynchronously-maintained cache state (retained
  /// callback locks, notified copies): entries older than this are
  /// revalidated with the server instead of used directly, so a lost
  /// callback or propagation degrades to a stale-read abort. 0 disables.
  double lease_ms = 2000.0;
  /// Server-side reaper: live transactions with no client contact for this
  /// long are aborted (suspected client crash). 0 disables.
  double xact_idle_timeout_ms = 60000.0;

  // --- overload robustness (backpressure and retry damping) ---
  /// Bound on the server's ready queue (transactions parked behind the MPL
  /// admission gate). When full, new arrivals are shed: synchronous
  /// requests get an immediate aborted reply (backpressure the client sees
  /// and backs off from); asynchronous ones are dropped. 0 = unbounded.
  int server_queue_limit = 0;
  /// Per-attempt budget of RPC retransmissions across all of an attempt's
  /// RPCs. When exhausted the client stops retransmitting and aborts the
  /// attempt (restart delay paces the retry), so a fault burst cannot fan
  /// out into a retry storm. 0 = no budget (per-RPC max_rpc_retries only).
  int retry_budget = 0;
  /// Fraction of each RPC timeout randomized (uniform in
  /// [1 - j/2, 1 + j/2]) so backed-off clients do not retransmit in
  /// lockstep. 0 = deterministic timeouts.
  double retry_jitter = 0.0;

  /// True when the plan needs the recovery layer. Without retries and
  /// duplicate suppression a lost or repeated message wedges a client
  /// forever (only pure delay spikes are survivable), a crashed or
  /// partitioned peer needs timeouts to be escaped, and shedding replies,
  /// retry budgets and jitter act only through the retry machinery.
  /// Validate() demands recovery_enabled when this holds; the tools turn
  /// recovery on from it after parsing their flags.
  bool NeedsRecovery() const {
    return drop_probability > 0.0 || duplicate_probability > 0.0 ||
           !crashes.empty() || !partitions.empty() ||
           server_queue_limit > 0 || retry_budget > 0 || retry_jitter > 0.0;
  }

  bool AnyFaults() const {
    return drop_probability > 0.0 || duplicate_probability > 0.0 ||
           delay_spike_probability > 0.0 || !crashes.empty() ||
           !partitions.empty() || torn_write_probability > 0.0 ||
           bit_flip_probability > 0.0;
  }
};

/// One transaction type in a mixed workload, with its selection weight.
struct MixEntry {
  TransactionParams params;
  double weight = 1.0;
};

/// A complete experiment configuration.
struct ExperimentConfig {
  DatabaseParams database;
  /// The (primary) transaction type. Ignored when `mix` is non-empty.
  TransactionParams transaction;
  /// Optional multi-type workload (paper §3.2: "a simulation run can
  /// simulate ... a mix of transactions belonging to different types").
  /// Each client draws a type per transaction with probability
  /// proportional to its weight.
  std::vector<MixEntry> mix;
  SystemParams system;
  AlgorithmParams algorithm;
  ControlParams control;
  FaultParams fault;
  CheckerParams checker;

  /// The transaction types actually in effect (the mix, or the single
  /// primary type).
  std::vector<MixEntry> EffectiveMix() const {
    if (!mix.empty()) {
      return mix;
    }
    return {MixEntry{transaction, 1.0}};
  }

  /// Sanity-checks parameter ranges and cross-field constraints.
  Status Validate() const;
};

/// Preset matching paper Table 5 (the base setting for §4 experiment 2 and
/// all §5 experiments).
ExperimentConfig BaseConfig();

/// Preset matching paper Table 4 (the ACL verification experiment, §4
/// experiment 1): centralized-DBMS-like setup, throughput comparison of 2PL
/// vs certification.
ExperimentConfig AclVerificationConfig();

/// Strips the simulated hardware costs out of a config for real-substrate
/// runs: the wire is a real socket (no modeled network delay or per-packet
/// CPU charge), the page store is in-memory (no seeks, no transfer time),
/// and page processing is the real CPU work of handling the message. Think
/// times and workload shape are left untouched — they are the experiment,
/// not the hardware.
ExperimentConfig RawSpeedConfig(ExperimentConfig config);

}  // namespace ccsim::config

#endif  // CCSIM_CONFIG_PARAMS_H_
