#ifndef CCSIM_STORAGE_DISK_H_
#define CCSIM_STORAGE_DISK_H_

#include <cstdint>
#include <string>

#include "sim/random.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace ccsim::storage {

/// Disk timing model (paper §3.3.2): seek time (including rotation) uniform
/// in [seek_low, seek_high]; `transfer` per disk block. Sequential accesses
/// (clustered atoms of one object) skip the seek.
struct DiskTiming {
  sim::Ticks seek_low = 0;
  sim::Ticks seek_high = 0;
  sim::Ticks transfer = 0;
};

/// A single disk: one FCFS server whose service time per access is sampled
/// from DiskTiming. Each disk owns an RNG stream so seek-time sequences are
/// independent across disks and reproducible.
class Disk {
 public:
  Disk(sim::Simulator* simulator, std::string name, DiskTiming timing,
       sim::Pcg32 rng)
      : resource_(simulator, std::move(name), /*num_servers=*/1),
        timing_(timing), rng_(rng) {}

  /// Performs one page access. `sequential` elides the seek (the caller
  /// decides using the database ClusterFactor).
  sim::Resource::UseOp Access(bool sequential) {
    sim::Ticks service = timing_.transfer;
    if (!sequential) {
      service += rng_.UniformTicks(timing_.seek_low, timing_.seek_high);
    }
    ++(sequential ? sequential_accesses_ : random_accesses_);
    return resource_.Use(service);
  }

  /// Appends `blocks` log blocks: sequential, transfer-only (dedicated log
  /// disks never seek between appends).
  sim::Resource::UseOp Append(int blocks) {
    sequential_accesses_ += static_cast<std::uint64_t>(blocks);
    return resource_.Use(timing_.transfer * blocks);
  }

  sim::Resource& resource() { return resource_; }
  const sim::Resource& resource() const { return resource_; }
  std::uint64_t random_accesses() const { return random_accesses_; }
  std::uint64_t sequential_accesses() const { return sequential_accesses_; }

 private:
  sim::Resource resource_;
  DiskTiming timing_;
  sim::Pcg32 rng_;
  std::uint64_t random_accesses_ = 0;
  std::uint64_t sequential_accesses_ = 0;
};

}  // namespace ccsim::storage

#endif  // CCSIM_STORAGE_DISK_H_
