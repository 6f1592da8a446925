#include "check/oracle.h"

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
}

Oracle::PageState& Oracle::StateOf(db::PageId page) {
  CCSIM_CHECK_MSG(page >= 0, "commit names page %d", page);
  const auto index = static_cast<std::size_t>(page);
  if (index >= pages_.size()) {
    pages_.resize(index + 1);
  }
  return pages_[index];
}

void Oracle::OnCommit(int client, std::uint64_t xact, std::int64_t at,
                      std::span<const PageVersion> reads,
                      std::span<const PageVersion> writes) {
  CCSIM_CHECK_MSG(node_of_.find(xact) == node_of_.end(),
                  "transaction %" PRIu64 " committed twice", xact);
  const int node = graph_.AddNode();
  node_of_.emplace(xact, node);
  info_.push_back({client, xact, at});
  ++commits_observed_;

  for (const auto& [page, version] : reads) {
    PageState& ps = StateOf(page);
    if (ps.latest == 0 && ps.writers.empty()) {
      // First observation of this page: the read establishes the baseline
      // committed version (the initial database state, not a tracked write).
      ps.latest = version;
    }
    CCSIM_CHECK_MSG(version <= ps.latest,
                    "commit of %" PRIu64 " read page %d at version %" PRIu64
                    " which was never installed (latest %" PRIu64 ")",
                    xact, page, version, ps.latest);
    if (const int writer = ps.WriterOf(version);
        writer >= 0 && writer != node) {
      AddEdgeChecked(writer, node, EdgeKind::kWriteRead, page, version);
    }
    if (version < ps.latest) {
      // The version read was already overwritten: this reader must precede
      // the transaction that installed version + 1.
      if (const int overwriter = ps.WriterOf(version + 1);
          overwriter >= 0 && overwriter != node) {
        AddEdgeChecked(node, overwriter, EdgeKind::kReadWrite, page, version);
      }
    } else {
      ps.readers_of_latest.push_back(node);
    }
  }

  for (const auto& [page, version] : writes) {
    PageState& ps = StateOf(page);
    if (ps.latest != 0 || !ps.writers.empty()) {
      CCSIM_CHECK_MSG(version == ps.latest + 1,
                      "version chain on page %d not dense: %" PRIu64
                      " installed after %" PRIu64,
                      page, version, ps.latest);
      if (ps.latest_writer >= 0 && ps.latest_writer != node) {
        AddEdgeChecked(ps.latest_writer, node, EdgeKind::kWriteWrite, page,
                       version);
      }
      for (int reader : ps.readers_of_latest) {
        if (reader != node) {
          AddEdgeChecked(reader, node, EdgeKind::kReadWrite, page,
                         version - 1);
        }
      }
    }
    if (ps.writers.empty()) {
      ps.first_written = version;
    }
    ps.latest = version;
    ps.latest_writer = node;
    ps.writers.push_back(node);
    ps.readers_of_latest.clear();
  }
}

void Oracle::AddEdgeChecked(int from, int to, EdgeKind kind, db::PageId page,
                            std::uint64_t version) {
  SerializationGraph::Cycle cycle;
  if (graph_.AddEdge(from, to, {kind, page, version}, &cycle)) {
    Violate(cycle);
  }
}

std::string Oracle::DescribeNode(int node) const {
  const XactInfo& info = info_[static_cast<std::size_t>(node)];
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
  violation_report_ = report;
  if (options_.abort_on_violation) {
    std::fputs(report.c_str(), stderr);
    std::fflush(stderr);
    std::abort();
  }
}

void Oracle::OnAbortObserved(std::uint64_t xact) { aborted_.insert(xact); }

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
  CCSIM_CHECK_MSG(unknown_.insert(xact).second,
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

void Oracle::AuditAtCommit() {
  if (audit_hook_) {
    ++audits_;
    audit_hook_();
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
  for (std::uint64_t xact : unknown_) {
    const bool committed = node_of_.find(xact) != node_of_.end();
    const bool aborted = aborted_.find(xact) != aborted_.end();
    CCSIM_CHECK_MSG(!(committed && aborted),
                    "unknown-outcome transaction %" PRIu64
                    " both committed and aborted",
                    xact);
    // Not committed and never seen aborting server-side still means
    // aborted: the commit request never took effect (lost request, or the
    // server-side state was garbage-collected before admission).
    if (committed) {
      ++unknown_resolved_committed_;
    } else {
      ++unknown_resolved_aborted_;
    }
  }
}

}  // namespace ccsim::check
