// Synthetic commit histories for feeding check::Oracle directly or through
// check::Checker (oracle retirement tests and the oracle's perf-smoke gates).

#ifndef CCSIM_TESTS_ORACLE_HISTORY_H_
#define CCSIM_TESTS_ORACLE_HISTORY_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "check/oracle.h"
#include "sim/random.h"

namespace ccsim {

/// A serial history over pages [0, pages): transaction i belongs to client
/// i mod `clients`, has xact id i + 1, reads 2–8 distinct pages at their
/// current versions and writes each of them with probability 1/2. Every
/// read is current, so every edge points forward in commit order and the
/// history is serializable. Pages at or above `pages` are left alone, for
/// tests that inject transactions of their own with Read / Write.
class SyntheticHistory {
 public:
  SyntheticHistory(int clients, int pages, std::uint64_t seed)
      : clients_(clients), pages_(pages), rng_(seed) {}

  /// Builds the next background transaction in reused buffers (nothing is
  /// allocated once they have grown to 8 entries).
  void NextBackground() {
    Begin();
    const int count = static_cast<int>(rng_.UniformInt(2, 8));
    while (static_cast<int>(reads_.size()) < count) {
      const auto page = static_cast<db::PageId>(rng_.UniformInt(0, pages_ - 1));
      if (std::none_of(reads_.begin(), reads_.end(),
                       [page](const check::PageVersion& r) {
                         return r.first == page;
                       })) {
        Read(page);
      }
    }
    for (std::size_t i = 0; i < reads_.size(); ++i) {
      if (rng_.Bernoulli(0.5)) {
        Write(reads_[i].first);
      }
    }
  }

  /// Starts a hand-built transaction (the next id and client).
  void Begin() {
    reads_.clear();
    writes_.clear();
    ++xact_;
  }
  /// Reads `page` at `version`, or at its current version if 0.
  void Read(db::PageId page, std::uint64_t version = 0) {
    reads_.emplace_back(page, version != 0 ? version : Version(page));
  }
  /// Installs the page's next version.
  void Write(db::PageId page) {
    Grow(page);
    writes_.emplace_back(page, ++versions_[static_cast<std::size_t>(page)]);
  }
  /// The page's current version (1 before any write: the initial state).
  std::uint64_t Version(db::PageId page) {
    Grow(page);
    return versions_[static_cast<std::size_t>(page)];
  }

  /// Feeds the transaction to a check::Oracle or a check::Checker.
  template <typename Feed>
  void FeedTo(Feed& feed) const {
    feed.OnCommit(client(), xact_, static_cast<std::int64_t>(xact_),
                  std::span<const check::PageVersion>(reads_),
                  std::span<const check::PageVersion>(writes_));
  }

  int client() const {
    return static_cast<int>((xact_ - 1) % static_cast<std::uint64_t>(clients_));
  }
  std::uint64_t xact() const { return xact_; }
  const std::vector<check::PageVersion>& reads() const { return reads_; }
  const std::vector<check::PageVersion>& writes() const { return writes_; }

 private:
  void Grow(db::PageId page) {
    if (static_cast<std::size_t>(page) >= versions_.size()) {
      versions_.resize(static_cast<std::size_t>(page) + 1, 1);
    }
  }

  int clients_;
  int pages_;
  sim::Pcg32 rng_;
  std::uint64_t xact_ = 0;
  std::vector<std::uint64_t> versions_;
  std::vector<check::PageVersion> reads_;
  std::vector<check::PageVersion> writes_;
};

}  // namespace ccsim

#endif  // CCSIM_TESTS_ORACLE_HISTORY_H_
