#include "check/oracle.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "util/macros.h"

namespace ccsim::check {
namespace {

/// Cap on retained stale-read provenance notes; beyond this only the
/// counter grows (a genuinely broken protocol produces them per commit).
constexpr std::size_t kMaxStaleNotes = 32;

std::string Format(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

}  // namespace

Oracle::Oracle(Options options, std::size_t total_pages)
    : options_(std::move(options)) {
  pages_.reserve(total_pages);
  // Retired sources are rare on a busy history, so the scratch would
  // otherwise reach its working size long after everything else.
  retired_sources_.reserve(64);
}

Oracle::PageState& Oracle::StateOf(db::PageId page) {
  CCSIM_CHECK_MSG(page >= 0, "commit names page %d", page);
  const auto index = static_cast<std::size_t>(page);
  if (index >= pages_.size()) {
    pages_.resize(index + 1);
  }
  return pages_[index];
}

Oracle::ClientLog& Oracle::LogOf(int client) {
  CCSIM_CHECK_MSG(client >= 0, "transaction of client %d", client);
  const auto index = static_cast<std::size_t>(client);
  if (index >= clients_.size()) {
    clients_.resize(index + 1);
  }
  return clients_[index];
}

std::uint64_t Oracle::RetainedWrite(const PageState& ps,
                                    std::uint64_t version) const {
  std::uint64_t index = ps.newest_write;
  for (std::uint64_t v = ps.latest; index != kNone && index >= writes_.begin();
       --v) {
    if (v == version) {
      return index;
    }
    index = writes_[index].prev;
  }
  return kNone;
}

void Oracle::AddReader(PageState& ps, int node) {
  std::uint32_t entry = free_readers_;
  if (entry == kNoReader) {
    entry = static_cast<std::uint32_t>(readers_.size());
    readers_.emplace_back();
  } else {
    free_readers_ = readers_[entry].next;
  }
  readers_[entry] = {node, kNoReader};
  if (ps.readers_tail == kNoReader) {
    ps.readers_head = entry;
  } else {
    readers_[ps.readers_tail].next = entry;
  }
  ps.readers_tail = entry;
}

void Oracle::OnCommit(int client, std::uint64_t xact, std::int64_t at,
                      std::span<const PageVersion> reads,
                      std::span<const PageVersion> writes) {
  ClientLog& log = LogOf(client);
  CCSIM_CHECK_MSG(xact > log.last_committed,
                  "transaction %" PRIu64 " committed twice (or after its "
                  "client's later transaction %" PRIu64 ")",
                  xact, log.last_committed);
  log.last_committed = xact;
  if (!unknown_.empty()) {
    if (auto it = unknown_.find(xact); it != unknown_.end()) {
      it->second.committed = true;
    }
  }
  const int node = graph_.AddNode();
  info_.push_back({client, xact, at, writes_.end()});
  ++commits_observed_;
  retired_sources_.clear();

  for (const auto& [page, version] : reads) {
    PageState& ps = StateOf(page);
    const bool written = ps.latest_writer >= 0;
    if (ps.latest == 0 && !written) {
      // First observation of this page: the read establishes the baseline
      // committed version (the initial database state, not a tracked write).
      ps.latest = version;
    }
    CCSIM_CHECK_MSG(version <= ps.latest,
                    "commit of %" PRIu64 " read page %d at version %" PRIu64
                    " which was never installed (latest %" PRIu64 ")",
                    xact, page, version, ps.latest);
    if (version == ps.latest) {
      if (written && ps.latest_writer != node) {
        AddEdgeChecked(ps.latest_writer, node, EdgeKind::kWriteRead, page,
                       version);
      }
      AddReader(ps, node);
      continue;
    }
    // The version read was already overwritten: this reader must precede
    // the transaction that installed version + 1.
    if (!written || version + 1 < ps.first_written) {
      continue;  // neither version's writer was observed
    }
    const std::uint64_t overwrite = RetainedWrite(ps, version + 1);
    if (overwrite == kNone) {
      ViolateBeyondHorizon(node, page, version);
      continue;
    }
    const WriteEntry w = writes_[overwrite];
    if (w.prev_writer >= 0 && w.prev_writer != node) {
      AddEdgeChecked(w.prev_writer, node, EdgeKind::kWriteRead, page,
                     version);
    }
    if (w.writer != node) {
      AddEdgeChecked(node, w.writer, EdgeKind::kReadWrite, page, version);
    }
  }

  for (const auto& [page, version] : writes) {
    PageState& ps = StateOf(page);
    const bool written = ps.latest_writer >= 0;
    if (ps.latest != 0 || written) {
      CCSIM_CHECK_MSG(version == ps.latest + 1,
                      "version chain on page %d not dense: %" PRIu64
                      " installed after %" PRIu64,
                      page, version, ps.latest);
      if (written && ps.latest_writer != node) {
        AddEdgeChecked(ps.latest_writer, node, EdgeKind::kWriteWrite, page,
                       version);
      }
      for (std::uint32_t r = ps.readers_head; r != kNoReader;
           r = readers_[r].next) {
        if (readers_[r].node != node) {
          AddEdgeChecked(readers_[r].node, node, EdgeKind::kReadWrite, page,
                         version - 1);
        }
      }
    }
    if (!written) {
      ps.first_written = version;
    }
    ps.newest_write =
        writes_.push_back({node, ps.latest_writer, ps.newest_write});
    ps.latest = version;
    ps.latest_writer = node;
    if (ps.readers_head != kNoReader) {
      readers_[ps.readers_tail].next = free_readers_;
      free_readers_ = ps.readers_head;
      ps.readers_head = ps.readers_tail = kNoReader;
    }
  }

  // Edges from retired sources cannot close a cycle, so they are only
  // counted, once per source as for stored ones.
  if (!retired_sources_.empty()) {
    std::sort(retired_sources_.begin(), retired_sources_.end());
    graph_.CountUnstoredEdges(static_cast<std::uint64_t>(
        std::unique(retired_sources_.begin(), retired_sources_.end()) -
        retired_sources_.begin()));
  }
  Retire();
}

void Oracle::AddEdgeChecked(int from, int to, EdgeKind kind, db::PageId page,
                            std::uint64_t version) {
  if (from < graph_.oldest()) {
    retired_sources_.push_back(from);
    return;
  }
  SerializationGraph::Cycle cycle;
  if (graph_.AddEdge(from, to, {kind, page, version}, &cycle)) {
    Violate(cycle);
  }
}

void Oracle::Retire() {
  while (graph_.node_count() > static_cast<std::size_t>(kHorizon) + 1 &&
         graph_.RetireOldest()) {
    const auto oldest = static_cast<std::uint64_t>(graph_.oldest());
    writes_.DropFront(info_[oldest].first_write);
    info_.DropFront(oldest);
  }
}

std::string Oracle::DescribeNode(int node) const {
  const XactInfo& info = info_[static_cast<std::uint64_t>(node)];
  return Format("T%" PRIu64 " (client %d, committed at tick %" PRId64 ")",
                info.xact, info.client, info.at);
}

void Oracle::Violate(const SerializationGraph::Cycle& cycle) {
  std::string report =
      Format("ccsim serializability violation: cycle of %zu committed "
             "transaction(s)\n",
             cycle.nodes.size());
  if (!options_.context.empty()) {
    report += "  run: " + options_.context + "\n";
  }
  for (std::size_t i = 0; i < cycle.nodes.size(); ++i) {
    const int from = cycle.nodes[i];
    const int to = cycle.nodes[(i + 1) % cycle.nodes.size()];
    report += "  " + DescribeNode(from) + "\n";
    if (const SerializationGraph::EdgeInfo* edge = graph_.FindEdge(from, to)) {
      report += Format("    --[%s page %d @ v%" PRIu64 "]--> ",
                       EdgeKindName(edge->kind), edge->page, edge->version);
    } else {
      report += "    --[edge]--> ";
    }
    report += DescribeNode(to) + "\n";
  }
  Report(std::move(report));
}

void Oracle::ViolateBeyondHorizon(int node, db::PageId page,
                                  std::uint64_t version) {
  std::string report =
      "ccsim serializability violation: stale read beyond the horizon\n";
  if (!options_.context.empty()) {
    report += "  run: " + options_.context + "\n";
  }
  report += "  " + DescribeNode(node) +
            Format(" committed a read of page %d at v%" PRIu64
                   ", overwritten by a transaction more than %d commits "
                   "older, which the graph no longer holds\n",
                   page, version, kHorizon);
  Report(std::move(report));
}

void Oracle::Report(std::string report) {
  if (!stale_notes_.empty()) {
    report += "  stale-at-commit evidence (cached copy outlived its "
              "version):\n";
    for (const std::string& note : stale_notes_) {
      report += "    " + note + "\n";
    }
    if (stale_commit_reads_ > stale_notes_.size()) {
      report += Format("    ... and %" PRIu64 " more\n",
                       stale_commit_reads_ - stale_notes_.size());
    }
  }
  violation_report_ = std::move(report);
  if (options_.abort_on_violation) {
    std::fputs(violation_report_.c_str(), stderr);
    std::fflush(stderr);
    std::abort();
  }
}

void Oracle::OnAbortObserved(int client, std::uint64_t xact) {
  ClientLog& log = LogOf(client);
  log.last_aborted = std::max(log.last_aborted, xact);
  OnAbortObserved(xact);
}

void Oracle::OnAbortObserved(std::uint64_t xact) {
  if (!unknown_.empty()) {
    if (auto it = unknown_.find(xact); it != unknown_.end()) {
      it->second.aborted = true;
    }
  }
}

void Oracle::NoteStaleCommitRead(int client, std::uint64_t xact,
                                 db::PageId page, std::uint64_t read_version,
                                 std::uint64_t current_version) {
  ++stale_commit_reads_;
  if (stale_notes_.size() < kMaxStaleNotes) {
    stale_notes_.push_back(
        Format("T%" PRIu64 " (client %d) committed a read of page %d at "
               "v%" PRIu64 " while v%" PRIu64 " was current",
               xact, client, page, read_version, current_version));
  }
}

void Oracle::OnUnknownOutcome(std::uint64_t xact) {
  // The transaction is its client's newest attempt, so whatever the server
  // did with it so far is its client's newest commit or abort.
  Outcome outcome;
  for (const ClientLog& log : clients_) {
    outcome.committed |= log.last_committed == xact;
    outcome.aborted |= log.last_aborted == xact;
  }
  CCSIM_CHECK_MSG(unknown_.emplace(xact, outcome).second,
                  "transaction %" PRIu64 " reported unknown-outcome twice",
                  xact);
}

void Oracle::OnTrustedLocalRead(int client, db::PageId page,
                                std::uint64_t version, bool retained_lock,
                                std::int64_t lease_until, std::int64_t now,
                                bool fault_free,
                                std::uint64_t current_version) {
  ++trusted_reads_;
  CCSIM_CHECK_MSG(lease_until == 0 || now <= lease_until,
                  "client %d trusted page %d past its lease "
                  "(now %" PRId64 ", lease %" PRId64 ")",
                  client, page, now, lease_until);
  if (retained_lock && fault_free && current_version != 0) {
    // A retained callback lock blocks writers, so on a fault-free run the
    // cached copy must still be the latest committed version at use time
    // (current_version was resolved by the caller at that moment).
    CCSIM_CHECK_MSG(version == current_version,
                    "client %d trusted a retained copy of page %d at "
                    "v%" PRIu64 " but v%" PRIu64 " is committed",
                    client, page, version, current_version);
  }
}

void Oracle::AuditPostRecovery(std::size_t active_xacts,
                               std::size_t locks_held,
                               std::size_t uncommitted_frames) {
  CCSIM_CHECK_MSG(active_xacts == 0,
                  "%zu transactions active right after recovery",
                  active_xacts);
  CCSIM_CHECK_MSG(locks_held == 0, "%zu locks held right after recovery",
                  locks_held);
  CCSIM_CHECK_MSG(uncommitted_frames == 0,
                  "%zu uncommitted buffer frames survived recovery",
                  uncommitted_frames);
}

void Oracle::Finalize(std::uint64_t reported_unknown_outcomes) {
  CCSIM_CHECK(!finalized_);
  finalized_ = true;
  CCSIM_CHECK_MSG(
      unknown_.size() == reported_unknown_outcomes,
      "oracle saw %zu unknown-outcome commits but metrics report %" PRIu64,
      unknown_.size(), reported_unknown_outcomes);
  for (const auto& [xact, outcome] : unknown_) {
    CCSIM_CHECK_MSG(!(outcome.committed && outcome.aborted),
                    "unknown-outcome transaction %" PRIu64
                    " both committed and aborted",
                    xact);
    // Not committed and never seen aborting server-side still means
    // aborted: the commit request never took effect (lost request, or the
    // server-side state was garbage-collected before admission).
    if (outcome.committed) {
      ++unknown_resolved_committed_;
    } else {
      ++unknown_resolved_aborted_;
    }
  }
}

}  // namespace ccsim::check
