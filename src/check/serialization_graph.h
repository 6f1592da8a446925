#ifndef CCSIM_CHECK_SERIALIZATION_GRAPH_H_
#define CCSIM_CHECK_SERIALIZATION_GRAPH_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "db/database.h"
#include "util/macros.h"

namespace ccsim::check {

/// Why one committed transaction must precede another in any equivalent
/// serial order.
enum class EdgeKind {
  /// Writer → reader: the reader saw the writer's installed version.
  kWriteRead,
  /// Writer → next writer of the same page (version chain order).
  kWriteWrite,
  /// Reader → overwriter: the reader saw the version the overwriter
  /// replaced (anti-dependency).
  kReadWrite,
};

const char* EdgeKindName(EdgeKind kind);

/// A FIFO of records addressed by a running index: `push_back` hands out
/// end(), 1, 2, ... and `DropFront` forgets a prefix. The live records
/// [begin(), end()) sit in a power-of-two ring that doubles when full, so a
/// FIFO whose length stops growing stops allocating.
template <typename T>
class FifoRing {
 public:
  std::uint64_t begin() const { return begin_; }
  std::uint64_t end() const { return end_; }
  std::uint64_t size() const { return end_ - begin_; }

  std::uint64_t push_back(const T& value) {
    if (size() == slots_.size()) {
      Grow();
    }
    slots_[end_ & (slots_.size() - 1)] = value;
    return end_++;
  }

  T& operator[](std::uint64_t index) {
    return slots_[index & (slots_.size() - 1)];
  }
  const T& operator[](std::uint64_t index) const {
    return slots_[index & (slots_.size() - 1)];
  }

  /// Forgets every record below `new_begin`.
  void DropFront(std::uint64_t new_begin) {
    CCSIM_CHECK(new_begin >= begin_ && new_begin <= end_);
    begin_ = new_begin;
  }

 private:
  void Grow() {
    std::vector<T> grown(slots_.empty() ? 16 : slots_.size() * 2);
    for (std::uint64_t i = begin_; i < end_; ++i) {
      grown[i & (grown.size() - 1)] = std::move((*this)[i]);
    }
    slots_ = std::move(grown);
  }

  std::vector<T> slots_;
  std::uint64_t begin_ = 0;
  std::uint64_t end_ = 0;
};

/// Direct serialization graph over committed transactions with online cycle
/// detection. Nodes are appended as transactions commit and get ids 0, 1,
/// 2, ...; edges carry the page and version that induced them so a
/// violation report can name the exact stale copy.
///
/// Acyclicity is maintained incrementally in Pearce–Kelly style: a
/// topological order `ord` is kept alongside the adjacency lists, and an
/// edge u→v with ord[v] < ord[u] triggers a search bounded by the affected
/// region [ord[v], ord[u]] — a forward pass from v and a backward pass from
/// u — followed by a reorder of only the visited nodes. Commit streams are
/// nearly topological already (most edges point at the newest node), so the
/// common case inserts an edge without any search.
///
/// Storage is flat: every stored edge lives once in a FIFO edge pool, with
/// its provenance inline, threaded onto its source's out-list and its
/// target's in-list; nodes are a FIFO of list heads. The owner may retire
/// nodes from the old end (RetireOldest): a retired node can no longer take
/// part in a cycle, so its storage — and that of every edge added while it
/// was the newest node — is reused.
class SerializationGraph {
 public:
  struct EdgeInfo {
    EdgeKind kind = EdgeKind::kWriteRead;
    db::PageId page = 0;
    /// The version that induced the edge: the version read (kWriteRead,
    /// kReadWrite) or the version the successor installed (kWriteWrite).
    std::uint64_t version = 0;
  };

  /// A cycle found while inserting an edge: `nodes[i] → nodes[i + 1]` and
  /// `nodes.back() → nodes.front()` are all edges of the graph.
  struct Cycle {
    std::vector<int> nodes;
  };

  /// Appends a node at the end of the topological order; returns its id.
  int AddNode();

  /// Inserts `from → to`; both must be retained. Returns true and fills
  /// `*cycle` if the edge closes a cycle (the graph is left with the edge
  /// in place; the caller is expected to abort the run). Duplicate edges
  /// are ignored — the first inserted provenance wins. Finding a duplicate
  /// is O(1) when either endpoint is the newest node (the oracle's only
  /// case) and a scan of `from`'s out-list otherwise.
  bool AddEdge(int from, int to, const EdgeInfo& info, Cycle* cycle);

  /// Counts `count` distinct edges the caller did not store because their
  /// source has retired (they cannot lie on a cycle).
  void CountUnstoredEdges(std::uint64_t count) { edge_count_ += count; }

  /// Provenance of a stored edge, or nullptr.
  const EdgeInfo* FindEdge(int from, int to) const;

  bool Retained(int node) const { return node >= oldest_ && node < next_; }
  int oldest() const { return oldest_; }

  /// Retires the oldest node unless a retained node has an edge into it
  /// (it is then the target of an edge from a newer node, which could
  /// still close a cycle through it). Needs at least two retained nodes.
  bool RetireOldest();

  /// Retained nodes.
  std::size_t node_count() const {
    return static_cast<std::size_t>(next_ - oldest_);
  }
  /// Edges held in the pool (an edge whose source retired stays until its
  /// target does).
  std::uint64_t stored_edge_count() const { return edges_.size(); }
  /// Every distinct edge ever added, stored or not.
  std::uint64_t edge_count() const { return edge_count_; }
  /// Edges that required a cycle-check search (the incremental analogue of
  /// an SCC check); the cheap in-order insertions are not counted.
  std::uint64_t reorder_checks() const { return reorder_checks_; }
  /// Largest affected region any single search visited.
  std::uint64_t max_frontier() const { return max_frontier_; }

 private:
  static constexpr std::uint64_t kNoEdge = ~std::uint64_t{0};

  struct Node {
    /// Position in the maintained topological order.
    int ord = 0;
    /// Search scratch: DFS parent, and the epoch that last visited it.
    int parent = -1;
    std::uint64_t mark = 0;
    std::uint64_t out_head = kNoEdge;
    std::uint64_t out_tail = kNoEdge;
    std::uint64_t in_head = kNoEdge;
    /// edges_.end() when this node was added: the edges added while it was
    /// the newest node start here.
    std::uint64_t first_edge = 0;
    /// This node has an edge into the newest node `in_mark` (an edge from
    /// the newest node `out_mark`): the O(1) duplicate test.
    int in_mark = -1;
    int out_mark = -1;
    /// Some newer node has an edge into this one.
    bool pinned = false;
  };

  struct Edge {
    int from = 0;
    int to = 0;
    std::uint64_t next_out = kNoEdge;
    std::uint64_t next_in = kNoEdge;
    EdgeInfo info;
  };

  Node& NodeAt(int id) { return nodes_[static_cast<std::uint64_t>(id)]; }
  const Node& NodeAt(int id) const {
    return nodes_[static_cast<std::uint64_t>(id)];
  }

  /// DFS forward from `start` through nodes with ord <= `bound`. Returns
  /// true (and fills `*cycle` via the parent links) if `target` is reached.
  bool ForwardSearch(int start, int target, int bound, Cycle* cycle);
  void BackwardSearch(int start, int bound);
  /// Re-packs the ord slots of `backward_` ∪ `forward_` so every backward
  /// node precedes every forward node, preserving relative order.
  void Reorder();

  /// Retained nodes; index = node id.
  FifoRing<Node> nodes_;
  FifoRing<Edge> edges_;
  int oldest_ = 0;
  int next_ = 0;
  /// Search scratch, reused so a search allocates only to grow it.
  std::vector<int> stack_;
  std::vector<int> forward_;
  std::vector<int> backward_;
  std::vector<int> slots_;
  std::uint64_t mark_epoch_ = 0;

  std::uint64_t edge_count_ = 0;
  std::uint64_t reorder_checks_ = 0;
  std::uint64_t max_frontier_ = 0;
};

}  // namespace ccsim::check

#endif  // CCSIM_CHECK_SERIALIZATION_GRAPH_H_
