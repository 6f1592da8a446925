#include "check/serialization_graph.h"

#include <algorithm>

namespace ccsim::check {

const char* EdgeKindName(EdgeKind kind) {
  switch (kind) {
    case EdgeKind::kWriteRead:
      return "WR";
    case EdgeKind::kWriteWrite:
      return "WW";
    case EdgeKind::kReadWrite:
      return "RW";
  }
  return "?";
}

int SerializationGraph::AddNode() {
  const int id = next_++;
  Node node;
  node.ord = id;
  node.first_edge = edges_.end();
  nodes_.push_back(node);
  return id;
}

const SerializationGraph::EdgeInfo* SerializationGraph::FindEdge(
    int from, int to) const {
  if (!Retained(from)) {
    return nullptr;
  }
  for (std::uint64_t e = NodeAt(from).out_head; e != kNoEdge;
       e = edges_[e].next_out) {
    if (edges_[e].to == to) {
      return &edges_[e].info;
    }
  }
  return nullptr;
}

bool SerializationGraph::AddEdge(int from, int to, const EdgeInfo& info,
                                 Cycle* cycle) {
  CCSIM_CHECK(Retained(from));
  CCSIM_CHECK(Retained(to));
  if (from == to) {
    cycle->nodes = {from};
    return true;
  }
  Node& source = NodeAt(from);
  Node& target = NodeAt(to);
  // Every edge into (out of) the newest node was added while it was the
  // newest, and each one stamped its other endpoint.
  const int newest = next_ - 1;
  const bool duplicate = to == newest     ? source.in_mark == to
                         : from == newest ? target.out_mark == from
                                          : FindEdge(from, to) != nullptr;
  if (duplicate) {
    // Already present; the graph is unchanged and still acyclic.
    return false;
  }
  if (to == newest) {
    source.in_mark = to;
  } else if (from == newest) {
    target.out_mark = from;
  }
  Edge edge;
  edge.from = from;
  edge.to = to;
  edge.next_in = target.in_head;
  edge.info = info;
  const std::uint64_t index = edges_.push_back(edge);
  // Out-lists keep insertion order: the forward search walks them, and the
  // cycle it reports depends on that order.
  if (source.out_tail == kNoEdge) {
    source.out_head = index;
  } else {
    edges_[source.out_tail].next_out = index;
  }
  source.out_tail = index;
  target.in_head = index;
  if (from > to) {
    target.pinned = true;
  }
  ++edge_count_;
  if (source.ord < target.ord) {
    return false;  // insertion respects the current order; no search needed
  }
  // Affected region: ord slots in [ord[to], ord[from]].
  ++reorder_checks_;
  forward_.clear();
  backward_.clear();
  ++mark_epoch_;
  if (ForwardSearch(to, from, source.ord, cycle)) {
    return true;
  }
  BackwardSearch(from, target.ord);
  max_frontier_ = std::max(
      max_frontier_,
      static_cast<std::uint64_t>(forward_.size() + backward_.size()));
  Reorder();
  return false;
}

bool SerializationGraph::RetireOldest() {
  CCSIM_CHECK(next_ - oldest_ >= 2);
  if (NodeAt(oldest_).pinned) {
    return false;
  }
  // The edges added while the oldest node was the newest have both
  // endpoints at or below it, so none of them is on a retained list.
  edges_.DropFront(NodeAt(oldest_ + 1).first_edge);
  ++oldest_;
  nodes_.DropFront(static_cast<std::uint64_t>(oldest_));
  return true;
}

bool SerializationGraph::ForwardSearch(int start, int target, int bound,
                                       Cycle* cycle) {
  stack_.clear();
  stack_.push_back(start);
  NodeAt(start).mark = mark_epoch_;
  NodeAt(start).parent = -1;
  while (!stack_.empty()) {
    const int node = stack_.back();
    stack_.pop_back();
    forward_.push_back(node);
    for (std::uint64_t e = NodeAt(node).out_head; e != kNoEdge;
         e = edges_[e].next_out) {
      const int next = edges_[e].to;
      if (next == target) {
        // start..node→target closes the cycle through the new edge
        // target→start. Reconstruct start..node, then append target so
        // consecutive pairs (and back to front) are all edges.
        std::vector<int> path = {node};
        for (int p = NodeAt(node).parent; p != -1; p = NodeAt(p).parent) {
          path.push_back(p);
        }
        std::reverse(path.begin(), path.end());  // start … node
        path.push_back(target);                  // edge node → target
        cycle->nodes = std::move(path);          // edge target → start closes
        return true;
      }
      Node& n = NodeAt(next);
      if (n.ord > bound) {
        continue;  // outside the affected region; cannot reach `target`
      }
      if (n.mark == mark_epoch_) {
        continue;
      }
      n.mark = mark_epoch_;
      n.parent = node;
      stack_.push_back(next);
    }
  }
  return false;
}

void SerializationGraph::BackwardSearch(int start, int bound) {
  stack_.clear();
  stack_.push_back(start);
  NodeAt(start).mark = mark_epoch_;
  while (!stack_.empty()) {
    const int node = stack_.back();
    stack_.pop_back();
    backward_.push_back(node);
    for (std::uint64_t e = NodeAt(node).in_head; e != kNoEdge;
         e = edges_[e].next_in) {
      const int prev = edges_[e].from;
      // A retired source precedes every retained node in the order, so it
      // is below `bound` (and its record is gone).
      if (prev < oldest_) {
        continue;
      }
      Node& p = NodeAt(prev);
      if (p.ord < bound || p.mark == mark_epoch_) {
        continue;
      }
      p.mark = mark_epoch_;
      stack_.push_back(prev);
    }
  }
}

void SerializationGraph::Reorder() {
  auto by_ord = [this](int a, int b) { return NodeAt(a).ord < NodeAt(b).ord; };
  std::sort(backward_.begin(), backward_.end(), by_ord);
  std::sort(forward_.begin(), forward_.end(), by_ord);
  // Pool the ord slots both sets occupy, then hand them back in ascending
  // order: first to the backward set (everything that must precede the new
  // edge's source), then to the forward set.
  slots_.clear();
  for (int node : backward_) {
    slots_.push_back(NodeAt(node).ord);
  }
  for (int node : forward_) {
    slots_.push_back(NodeAt(node).ord);
  }
  std::sort(slots_.begin(), slots_.end());
  std::size_t slot = 0;
  for (int node : backward_) {
    NodeAt(node).ord = slots_[slot++];
  }
  for (int node : forward_) {
    NodeAt(node).ord = slots_[slot++];
  }
}

}  // namespace ccsim::check
