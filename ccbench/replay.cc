// Per-layer replays: the workload's own transactions, regenerated with
// workload::WorkloadGenerator, drive one layer's public API at a time so
// its cost per operation is timed from outside the program.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "ccbench.h"
#include "check/checker.h"
#include "client/client_cache.h"
#include "db/database.h"
#include "lock/lock_manager.h"
#include "sim/process.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "substrate/wire.h"
#include "workload/workload.h"

namespace ccbench {
namespace {

using namespace ccsim;

/// The runners' per-client RNG stream ids (runner/experiment.cc and
/// substrate/node.cc), so replay regenerates each client's own specs.
constexpr std::uint64_t kClientObjectStreamBase = 0x1000;
constexpr std::uint64_t kClientDelayStreamBase = 0x20000;

struct Replayed {
  int client = 0;
  workload::TransactionSpec spec;
  /// Distinct pages read and written, sorted (the commit's read/write sets).
  std::vector<db::PageId> reads;
  std::vector<db::PageId> writes;
};

double NanosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

std::vector<db::PageId> Distinct(std::vector<db::PageId> pages) {
  std::sort(pages.begin(), pages.end());
  pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
  return pages;
}

/// Draws `count` specs round-robin over the clients; returns ns per call.
double Generate(const config::ExperimentConfig& cfg,
                const db::DatabaseLayout& layout, int count,
                std::vector<Replayed>* out) {
  const int clients = cfg.system.num_clients;
  const std::uint64_t seed = cfg.control.seed;
  std::vector<workload::WorkloadGenerator> generators;
  generators.reserve(static_cast<std::size_t>(clients));
  for (int i = 0; i < clients; ++i) {
    const auto id = static_cast<std::uint64_t>(i);
    generators.emplace_back(cfg.EffectiveMix(), &layout,
                            sim::Pcg32(seed, kClientObjectStreamBase + id),
                            sim::Pcg32(seed, kClientDelayStreamBase + id));
  }
  out->assign(static_cast<std::size_t>(count), Replayed{});
  const Clock::time_point t0 = Clock::now();
  for (int k = 0; k < count; ++k) {
    Replayed& t = (*out)[static_cast<std::size_t>(k)];
    t.client = k % clients;
    t.spec = generators[static_cast<std::size_t>(t.client)].NextTransaction();
  }
  const double ns = NanosSince(t0) / count;
  for (Replayed& t : *out) {
    for (const workload::Step& step : t.spec.steps) {
      t.reads.insert(t.reads.end(), step.read_pages.begin(),
                     step.read_pages.end());
      t.writes.insert(t.writes.end(), step.write_pages.begin(),
                      step.write_pages.end());
    }
    t.reads = Distinct(std::move(t.reads));
    t.writes = Distinct(std::move(t.writes));
  }
  return ns;
}

/// One client cache per client, driven the way a committing attempt uses
/// it: Touch (Insert on a miss) and Pin per page read, dirty and locked per
/// page written, then DirtyPages + EndTransaction at the attempt end.
void ReplayCache(const config::ExperimentConfig& cfg,
                 const std::vector<Replayed>& txns, double* access_ns,
                 double* end_ns) {
  std::vector<std::unique_ptr<client::ClientCache>> caches;
  for (int i = 0; i < cfg.system.num_clients; ++i) {
    caches.push_back(
        std::make_unique<client::ClientCache>(cfg.system.client_cache_pages));
  }
  double accesses = 0;
  double access_total = 0;
  double end_total = 0;
  for (const Replayed& t : txns) {
    client::ClientCache& cache = *caches[static_cast<std::size_t>(t.client)];
    const Clock::time_point t0 = Clock::now();
    for (const workload::Step& step : t.spec.steps) {
      for (db::PageId page : step.read_pages) {
        if (cache.Touch(page) == nullptr) {
          cache.RecordMiss();
          cache.Insert(page, client::CachedPage{});
        } else {
          cache.RecordHit();
        }
        cache.Pin(page);
      }
      for (db::PageId page : step.write_pages) {
        client::CachedPage* entry = cache.Find(page);
        entry->dirty = true;
        entry->lock = client::PageLock::kExclusive;
      }
      accesses += static_cast<double>(step.read_pages.size() +
                                      step.write_pages.size());
    }
    const Clock::time_point t1 = Clock::now();
    for (db::PageId page : cache.DirtyPages()) {
      cache.Find(page)->dirty = false;  // shipped with the commit
    }
    cache.EndTransaction();
    end_total += NanosSince(t1);
    access_total += std::chrono::duration<double, std::nano>(t1 - t0).count();
  }
  *access_ns = access_total / accesses;
  *end_ns = end_total / static_cast<double>(txns.size());
}

sim::Process AcquireAll(lock::LockManager* locks, const Replayed* t,
                        lock::OwnerId owner, std::uint64_t* granted) {
  for (db::PageId page : t->reads) {
    if (co_await locks->Acquire(owner, page, lock::LockMode::kShared) ==
        lock::LockOutcome::kGranted) {
      ++*granted;
    }
  }
  for (db::PageId page : t->writes) {
    if (co_await locks->Acquire(owner, page, lock::LockMode::kExclusive) ==
        lock::LockOutcome::kGranted) {
      ++*granted;
    }
  }
  locks->ReleaseAll(owner);
}

/// Serial lock replay on a private simulator: one process per transaction,
/// each run to completion before the next starts (the calendar fires
/// same-time spawns in order), so every request is granted at once and this
/// is the lock table's own cost per Acquire + ReleaseAll.
double ReplayLocks(const std::vector<Replayed>& txns, Report* report) {
  std::uint64_t requests = 0;
  for (const Replayed& t : txns) {
    requests += t.reads.size() + t.writes.size();
  }
  sim::Simulator sim;
  std::uint64_t granted = 0;
  double ns = 0;
  {
    lock::LockManager locks(&sim);
    const Clock::time_point t0 = Clock::now();
    lock::OwnerId owner = 0;
    for (const Replayed& t : txns) {
      sim.Spawn(AcquireAll(&locks, &t, ++owner, &granted));
    }
    sim.Run(sim::kTicksPerSecond);
    ns = NanosSince(t0) / static_cast<double>(requests);
  }
  if (granted != requests) {
    report->Fail("lock replay: a serial request was not granted");
  }
  return ns;
}

/// Feeds the replayed transactions as a serial history (each commit reads
/// the latest versions) to a pipelined Checker; Finish() is amortised.
double ReplayChecker(const db::DatabaseLayout& layout,
                     const std::vector<Replayed>& txns, Report* report) {
  db::VersionTable versions(layout.total_pages());
  check::Checker checker(&versions, check::Checker::Options{});
  std::vector<check::PageVersion> reads;
  std::vector<check::PageVersion> writes;
  const Clock::time_point t0 = Clock::now();
  std::uint64_t xact = 0;
  for (const Replayed& t : txns) {
    reads.clear();
    writes.clear();
    for (db::PageId page : t.reads) {
      reads.emplace_back(page, versions.Get(page));
    }
    for (db::PageId page : t.writes) {
      writes.emplace_back(page, versions.Bump(page));
    }
    ++xact;
    checker.OnCommit(t.client, xact, static_cast<std::int64_t>(xact), reads,
                     writes);
  }
  checker.Finish();
  const double ns = NanosSince(t0) / static_cast<double>(txns.size());
  if (checker.oracle().commits_observed() != txns.size()) {
    report->Fail("checker replay: the oracle missed commits");
  }
  return ns;
}

}  // namespace

ReplayTimes ReplayLayers(const config::ExperimentConfig& config,
                         int transactions, int reps, Report* report) {
  const db::DatabaseLayout layout(config.database,
                                  config.system.num_data_disks);
  std::vector<double> next, access, end, lock, check;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<Replayed> txns;
    next.push_back(Generate(config, layout, transactions, &txns));
    double access_ns = 0;
    double end_ns = 0;
    ReplayCache(config, txns, &access_ns, &end_ns);
    access.push_back(access_ns);
    end.push_back(end_ns);
    lock.push_back(ReplayLocks(txns, report));
    if (config.checker.enabled) {
      check.push_back(ReplayChecker(layout, txns, report));
    }
  }
  return {Median(next), Median(access), Median(end), Median(lock),
          Median(check)};
}

double ReplayCodec(const std::vector<net::Message>& samples,
                   std::uint32_t page_payload_bytes, int reps,
                   Report* report) {
  if (samples.empty()) {
    report->Fail("codec replay: no inbound message was sampled");
    return 0.0;
  }
  std::vector<std::uint8_t> frame;
  net::Message decoded;
  std::string error;
  std::vector<double> ns;
  for (int rep = 0; rep < reps; ++rep) {
    bool intact = true;
    const Clock::time_point t0 = Clock::now();
    for (const net::Message& msg : samples) {
      frame.clear();
      substrate::EncodeMessage(msg, page_payload_bytes, &frame);
      // Skip the u32 length prefix: DecodeMessage takes the frame body.
      intact &= substrate::DecodeMessage(frame.data() + 4, frame.size() - 4,
                                         page_payload_bytes, &decoded,
                                         &error) &&
                decoded.type == msg.type && decoded.xact == msg.xact &&
                decoded.pages == msg.pages &&
                decoded.data_pages == msg.data_pages;
    }
    ns.push_back(NanosSince(t0) / static_cast<double>(samples.size()));
    if (!intact) {
      report->Fail("codec replay: a message did not survive encode/decode");
      break;
    }
  }
  return Median(ns);
}

}  // namespace ccbench
