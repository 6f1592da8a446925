// Unit tests for the storage substrate: disk timing, buffer pool LRU /
// write-back / shared loads / abort accounting, and the log manager.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "config/params.h"
#include "db/database.h"
#include "sim/process.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "storage/buffer_pool.h"
#include "storage/disk.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "storage/log_manager.h"

namespace ccsim::storage {
namespace {

class StorageTest : public ::testing::Test {
 protected:
  StorageTest() {
    config::DatabaseParams db_params;
    db_params.num_classes = 4;
    db_params.pages_per_class = {10};
    db_params.object_size = {1};
    layout_ = std::make_unique<db::DatabaseLayout>(db_params, 2);
    cpu_ = std::make_unique<sim::Resource>(&sim_, "cpu", 1);
    // Deterministic disk: zero seek, 2 ms transfer.
    const DiskTiming timing{0, 0, sim::MillisToTicks(2)};
    disks_.push_back(std::make_unique<Disk>(&sim_, "d0", timing,
                                            sim::Pcg32(1, 1)));
    disks_.push_back(std::make_unique<Disk>(&sim_, "d1", timing,
                                            sim::Pcg32(1, 2)));
  }

  BufferPool MakePool(int capacity) {
    BufferPool::Params params;
    params.capacity_pages = capacity;
    params.init_disk_cost = 0;
    return BufferPool(&sim_, params, layout_.get(),
                      {disks_[0].get(), disks_[1].get()}, cpu_.get());
  }

  sim::Simulator sim_;
  std::unique_ptr<db::DatabaseLayout> layout_;
  std::unique_ptr<sim::Resource> cpu_;
  std::vector<std::unique_ptr<Disk>> disks_;
};

sim::Process FetchOne(BufferPool& pool, db::PageId page, int& done) {
  co_await pool.FetchPage(page, /*sequential=*/false);
  ++done;
}

sim::Process InstallOne(BufferPool& pool, db::PageId page, std::uint64_t xact,
                        int& done) {
  co_await pool.InstallPage(page, xact);
  ++done;
}

TEST_F(StorageTest, MissThenHit) {
  BufferPool pool = MakePool(4);
  int done = 0;
  sim_.Spawn(FetchOne(pool, 0, done));
  sim_.Run(sim::SecondsToTicks(1));
  EXPECT_EQ(done, 1);
  EXPECT_EQ(pool.misses(), 1u);
  sim_.Spawn(FetchOne(pool, 0, done));
  sim_.Run(sim::SecondsToTicks(2));
  EXPECT_EQ(done, 2);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
}

TEST_F(StorageTest, ConcurrentFetchesShareOneIo) {
  BufferPool pool = MakePool(4);
  int done = 0;
  sim_.Spawn(FetchOne(pool, 0, done));
  sim_.Spawn(FetchOne(pool, 0, done));
  sim_.Spawn(FetchOne(pool, 0, done));
  sim_.Run(sim::SecondsToTicks(1));
  EXPECT_EQ(done, 3);
  // One disk access total (paper §1 point 2).
  EXPECT_EQ(disks_[0]->random_accesses() + disks_[1]->random_accesses(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(pool.hits(), 2u);
}

TEST_F(StorageTest, CapacityRespectedWithEviction) {
  BufferPool pool = MakePool(2);
  int done = 0;
  for (db::PageId p = 0; p < 5; ++p) {
    sim_.Spawn(FetchOne(pool, p, done));
  }
  sim_.Run(sim::SecondsToTicks(5));
  EXPECT_EQ(done, 5);
  EXPECT_LE(pool.size(), 2u);
  EXPECT_EQ(pool.misses(), 5u);
}

TEST_F(StorageTest, DirtyVictimWritesBack) {
  BufferPool pool = MakePool(1);
  int done = 0;
  sim_.Spawn(InstallOne(pool, 0, BufferPool::kCommitted, done));
  sim_.Run(sim::SecondsToTicks(1));
  const std::uint64_t accesses_before =
      disks_[0]->random_accesses() + disks_[1]->random_accesses();
  sim_.Spawn(FetchOne(pool, 3, done));  // evicts dirty page 0
  sim_.Run(sim::SecondsToTicks(2));
  EXPECT_EQ(done, 2);
  EXPECT_EQ(pool.writebacks(), 1u);
  // Write-back + read = two accesses.
  EXPECT_EQ(disks_[0]->random_accesses() + disks_[1]->random_accesses(),
            accesses_before + 2);
}

TEST_F(StorageTest, CommitClearsUncommittedOwnership) {
  BufferPool pool = MakePool(4);
  int done = 0;
  sim_.Spawn(InstallOne(pool, 0, /*xact=*/42, done));
  sim_.Run(sim::SecondsToTicks(1));
  pool.CommitTransaction(42);
  // After commit an abort of the same transaction owes nothing.
  EXPECT_TRUE(pool.AbortTransaction(42).empty());
}

TEST_F(StorageTest, AbortReportsFlushedUncommittedPages) {
  BufferPool pool = MakePool(1);
  int done = 0;
  sim_.Spawn(InstallOne(pool, 0, /*xact=*/42, done));
  sim_.Run(sim::SecondsToTicks(1));
  // Force the uncommitted dirty page to disk by loading another page.
  sim_.Spawn(FetchOne(pool, 3, done));
  sim_.Run(sim::SecondsToTicks(2));
  const std::vector<db::PageId> flushed = pool.AbortTransaction(42);
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0], 0);
}

TEST_F(StorageTest, AbortWithoutFlushIsFree) {
  BufferPool pool = MakePool(4);
  int done = 0;
  sim_.Spawn(InstallOne(pool, 0, /*xact=*/42, done));
  sim_.Run(sim::SecondsToTicks(1));
  EXPECT_TRUE(pool.AbortTransaction(42).empty());
  // The page reverted to committed-dirty; a new transaction may own it.
  sim_.Spawn(InstallOne(pool, 0, /*xact=*/43, done));
  sim_.Run(sim::SecondsToTicks(2));
  EXPECT_EQ(done, 2);
}

TEST_F(StorageTest, SequentialAccessSkipsSeek) {
  const DiskTiming timing{sim::MillisToTicks(10), sim::MillisToTicks(10),
                          sim::MillisToTicks(2)};
  Disk disk(&sim_, "seeky", timing, sim::Pcg32(1, 3));
  sim::Ticks seq_done = 0;
  sim::Ticks rand_done = 0;
  struct Runner {
    static sim::Process Access(sim::Simulator& sim, Disk& disk,
                               bool sequential, sim::Ticks& done_at) {
      co_await disk.Access(sequential);
      done_at = sim.Now();
    }
  };
  sim_.Spawn(Runner::Access(sim_, disk, /*sequential=*/true, seq_done));
  sim_.Run(sim::SecondsToTicks(1));
  EXPECT_EQ(seq_done, sim::MillisToTicks(2));
  sim_.Spawn(Runner::Access(sim_, disk, /*sequential=*/false, rand_done));
  sim_.Run(sim::SecondsToTicks(2));
  EXPECT_EQ(rand_done - seq_done, sim::MillisToTicks(12));
}

sim::Process ForceOne(LogManager& log, int pages, int& done) {
  co_await log.ForceCommit(pages);
  ++done;
}

sim::Process AbortOne(LogManager& log, std::vector<db::PageId> flushed,
                      int& done) {
  co_await log.ProcessAbort(flushed);
  ++done;
}

TEST_F(StorageTest, LogForceUsesLogDisk) {
  const DiskTiming timing{0, 0, sim::MillisToTicks(2)};
  Disk log_disk(&sim_, "log", timing, sim::Pcg32(1, 4));
  LogManager::Params params;
  params.enabled = true;
  LogManager log(params, layout_.get(), {&log_disk},
                 {disks_[0].get(), disks_[1].get()}, cpu_.get());
  int done = 0;
  sim_.Spawn(ForceOne(log, 3, done));
  sim_.Run(sim::SecondsToTicks(1));
  EXPECT_EQ(done, 1);
  EXPECT_EQ(log.commits_logged(), 1u);
  EXPECT_EQ(log_disk.sequential_accesses(), 1u);
}

TEST_F(StorageTest, ReadOnlyCommitWritesNoLog) {
  const DiskTiming timing{0, 0, sim::MillisToTicks(2)};
  Disk log_disk(&sim_, "log", timing, sim::Pcg32(1, 4));
  LogManager::Params params;
  params.enabled = true;
  LogManager log(params, layout_.get(), {&log_disk},
                 {disks_[0].get(), disks_[1].get()}, cpu_.get());
  int done = 0;
  sim_.Spawn(ForceOne(log, 0, done));
  sim_.Run(sim::SecondsToTicks(1));
  EXPECT_EQ(done, 1);
  EXPECT_EQ(log_disk.sequential_accesses(), 0u);
}

TEST_F(StorageTest, AbortUndoChargesDataDiskIos) {
  const DiskTiming timing{0, 0, sim::MillisToTicks(2)};
  Disk log_disk(&sim_, "log", timing, sim::Pcg32(1, 4));
  LogManager::Params params;
  params.enabled = true;
  LogManager log(params, layout_.get(), {&log_disk},
                 {disks_[0].get(), disks_[1].get()}, cpu_.get());
  int done = 0;
  sim_.Spawn(AbortOne(log, {0, 1}, done));
  sim_.Run(sim::SecondsToTicks(1));
  EXPECT_EQ(done, 1);
  EXPECT_EQ(log.undo_page_ios(), 4u);  // read + write per page
  EXPECT_EQ(disks_[0]->random_accesses() + disks_[1]->random_accesses(), 4u);
  EXPECT_EQ(log_disk.sequential_accesses(), 1u);  // log tail read
}

// AppendCommitRecord's audit: per page, LSNs and versions must rise.
using CommitWrites = std::vector<std::pair<db::PageId, std::uint64_t>>;

TEST_F(StorageTest, CommitRecordOnALoggedPageNeedsAHigherVersion) {
  LogManager log(LogManager::Params{}, layout_.get(), {},
                 {disks_[0].get(), disks_[1].get()}, cpu_.get());
  log.AppendCommitRecord(CommitWrites{{3, 5}, {4, 2}});
  log.AppendCommitRecord(CommitWrites{{3, 6}});
  log.AppendCommitRecord(CommitWrites{{4, 9}, {3, 7}});
  EXPECT_EQ(log.commit_records_stamped(), 3u);
}

TEST_F(StorageTest, ReadOnlyCommitStampsNoCommitRecord) {
  LogManager log(LogManager::Params{}, layout_.get(), {},
                 {disks_[0].get(), disks_[1].get()}, cpu_.get());
  log.AppendCommitRecord(CommitWrites{});
  EXPECT_EQ(log.commit_records_stamped(), 0u);
  log.AppendCommitRecord(CommitWrites{{3, 5}});
  log.AppendCommitRecord(CommitWrites{});
  EXPECT_EQ(log.commit_records_stamped(), 1u);
  // The read-only commits left every page's stamp alone.
  log.AppendCommitRecord(CommitWrites{{3, 6}});
  EXPECT_EQ(log.commit_records_stamped(), 2u);
}

using StorageDeathTest = StorageTest;

TEST_F(StorageDeathTest, LowerVersionOnALoggedPageFails) {
  LogManager log(LogManager::Params{}, layout_.get(), {},
                 {disks_[0].get(), disks_[1].get()}, cpu_.get());
  log.AppendCommitRecord(CommitWrites{{3, 5}});
  EXPECT_DEATH(log.AppendCommitRecord(CommitWrites{{3, 4}}),
               "page 3 logged version 4 after 5");
}

TEST_F(StorageDeathTest, EqualVersionOnALoggedPageFails) {
  LogManager log(LogManager::Params{}, layout_.get(), {},
                 {disks_[0].get(), disks_[1].get()}, cpu_.get());
  log.AppendCommitRecord(CommitWrites{{3, 5}});
  EXPECT_DEATH(log.AppendCommitRecord(CommitWrites{{3, 5}}),
               "page 3 logged version 5 after 5");
}

TEST_F(StorageTest, DisabledLogManagerIsFree) {
  LogManager::Params params;
  params.enabled = false;
  LogManager log(params, layout_.get(), {},
                 {disks_[0].get(), disks_[1].get()}, cpu_.get());
  int done = 0;
  sim_.Spawn(ForceOne(log, 3, done));
  sim_.Spawn(AbortOne(log, {0, 1}, done));
  sim_.Run(sim::SecondsToTicks(1));
  EXPECT_EQ(done, 2);
  EXPECT_EQ(log.commits_logged(), 0u);
  EXPECT_EQ(disks_[0]->random_accesses() + disks_[1]->random_accesses(), 0u);
}

sim::Process RecoverOne(LogManager& log, int redo_pages, int& done) {
  co_await log.ReplayRecovery(redo_pages);
  ++done;
}

TEST_F(StorageTest, WriteVerifyDetectsTornWriteAndRewrites) {
  const DiskTiming timing{0, 0, sim::MillisToTicks(2)};
  Disk log_disk(&sim_, "log", timing, sim::Pcg32(1, 4));
  LogManager::Params params;
  params.enabled = true;
  LogManager log(params, layout_.get(), {&log_disk},
                 {disks_[0].get(), disks_[1].get()}, cpu_.get());
  fault::FaultPlan plan;
  plan.storage.torn_write = 1.0;  // every force fails its read-back once
  fault::FaultInjector injector(plan, sim::Pcg32(7, 7));
  log.set_fault_injector(&injector);
  int done = 0;
  sim_.Spawn(ForceOne(log, 3, done));
  sim_.Run(sim::SecondsToTicks(1));
  EXPECT_EQ(done, 1);
  EXPECT_EQ(log.torn_writes_detected(), 1u);
  EXPECT_EQ(log.bit_flips_detected(), 0u);
  EXPECT_EQ(log.log_rewrites(), 1u);
  // The repair re-appends the record: two sequential log writes total.
  EXPECT_EQ(log_disk.sequential_accesses(), 2u);
  EXPECT_EQ(log.records_appended(), 1u);
  EXPECT_EQ(log.records_durable(), 1u);
  EXPECT_EQ(log.records_truncated(), 0u);
}

TEST_F(StorageTest, WriteVerifyDetectsBitFlipWhenNotTorn) {
  const DiskTiming timing{0, 0, sim::MillisToTicks(2)};
  Disk log_disk(&sim_, "log", timing, sim::Pcg32(1, 4));
  LogManager::Params params;
  params.enabled = true;
  LogManager log(params, layout_.get(), {&log_disk},
                 {disks_[0].get(), disks_[1].get()}, cpu_.get());
  fault::FaultPlan plan;
  plan.storage.bit_flip = 1.0;
  fault::FaultInjector injector(plan, sim::Pcg32(7, 7));
  log.set_fault_injector(&injector);
  int done = 0;
  sim_.Spawn(ForceOne(log, 2, done));
  sim_.Run(sim::SecondsToTicks(1));
  EXPECT_EQ(done, 1);
  EXPECT_EQ(log.bit_flips_detected(), 1u);
  EXPECT_EQ(log.torn_writes_detected(), 0u);
  EXPECT_EQ(log.log_rewrites(), 1u);
  EXPECT_EQ(log_disk.sequential_accesses(), 2u);
  EXPECT_EQ(log.records_durable(), 1u);
}

TEST_F(StorageTest, CrashMidForceTruncatesAndRecoveryReforces) {
  const DiskTiming timing{0, 0, sim::MillisToTicks(2)};
  Disk log_disk(&sim_, "log", timing, sim::Pcg32(1, 4));
  LogManager::Params params;
  params.enabled = true;
  LogManager log(params, layout_.get(), {&log_disk},
                 {disks_[0].get(), disks_[1].get()}, cpu_.get());
  int done = 0;
  sim_.Spawn(ForceOne(log, 3, done));
  // The append takes 2 ms; crash 1 ms in, while the force is in flight.
  sim_.ScheduleAt(sim::MillisToTicks(1), [&log] { log.OnCrash(); });
  sim_.Run(sim::SecondsToTicks(1));
  EXPECT_EQ(done, 1);  // the zombie coroutine unwinds normally
  // The record got an LSN but was truncated, not made durable.
  EXPECT_EQ(log.records_appended(), 1u);
  EXPECT_EQ(log.records_durable(), 0u);
  EXPECT_EQ(log.records_truncated(), 1u);
  EXPECT_EQ(log.forces_in_flight(), 0);

  // Restart recovery scans the log (one read per log disk) and re-forces
  // the truncated commit, making the log whole again.
  sim_.Spawn(RecoverOne(log, 0, done));
  sim_.Run(sim::SecondsToTicks(2));
  EXPECT_EQ(done, 2);
  EXPECT_EQ(log.records_durable(), 1u);
  EXPECT_EQ(log.records_truncated(), 1u);  // historical count stays
  // One partial append + one scan + one re-force.
  EXPECT_EQ(log_disk.sequential_accesses(), 3u);
}

}  // namespace
}  // namespace ccsim::storage
