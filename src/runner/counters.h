#ifndef CCSIM_RUNNER_COUNTERS_H_
#define CCSIM_RUNNER_COUNTERS_H_

// Plumbing for the counter table (runner/counters.def): the macros that
// pick rows by source, scope and merge when the table is expanded, and the
// types the expansions share.

#include <algorithm>
#include <cstddef>

namespace ccsim::server {
class Server;
}  // namespace ccsim::server
namespace ccsim::net {
class Network;
}  // namespace ccsim::net
namespace ccsim::fault {
class FaultInjector;
}  // namespace ccsim::fault
namespace ccsim::check {
class Checker;
}  // namespace ccsim::check

// Expands its arguments only for rows whose source is `metrics`.
#define CCSIM_IF_METRICS(source, ...) CCSIM_IF_METRICS_##source(__VA_ARGS__)
#define CCSIM_IF_METRICS_metrics(...) __VA_ARGS__
#define CCSIM_IF_METRICS_server(...)
#define CCSIM_IF_METRICS_network(...)
#define CCSIM_IF_METRICS_injector(...)
#define CCSIM_IF_METRICS_checker(...)
#define CCSIM_IF_METRICS_calc(...)

// Expands its arguments only for rows read from a node (not Calc rows).
#define CCSIM_IF_SOURCED(source, ...) CCSIM_IF_SOURCED_##source(__VA_ARGS__)
#define CCSIM_IF_SOURCED_metrics(...) __VA_ARGS__
#define CCSIM_IF_SOURCED_server(...) __VA_ARGS__
#define CCSIM_IF_SOURCED_network(...) __VA_ARGS__
#define CCSIM_IF_SOURCED_injector(...) __VA_ARGS__
#define CCSIM_IF_SOURCED_checker(...) __VA_ARGS__
#define CCSIM_IF_SOURCED_calc(...)

// Expands its arguments only for Window-scoped rows.
#define CCSIM_IF_WINDOW(scope, ...) CCSIM_IF_WINDOW_##scope(__VA_ARGS__)
#define CCSIM_IF_WINDOW_Window(...) __VA_ARGS__
#define CCSIM_IF_WINDOW_Life(...)

// Folds one node's value into the run-wide field.
#define CCSIM_MERGE(merge, into, value) CCSIM_MERGE_##merge(into, value)
#define CCSIM_MERGE_Sum(into, value) into += value;
#define CCSIM_MERGE_Max(into, value) into = std::max(into, value);

namespace ccsim::runner {

class Metrics;

/// The Metrics counters: one enumerator per table row whose source is
/// `metrics`, named like the row. Record one with Metrics::Count.
enum class Counter : std::size_t {
#define CCSIM_FIELD(name, type, csv, format, scope, merge, source, read) \
  CCSIM_IF_METRICS(source, name, )
#include "runner/counters.def"
  kCount
};

/// One table row's metadata, as handed to ForEachField visitors.
struct FieldInfo {
  const char* name;
  /// CSV column header; empty when the field is not a CSV column.
  const char* csv;
  /// printf conversion for the field's value.
  const char* format;
  /// The node object the value is read from ("calc" = computed).
  const char* source;
};

/// The counter sources of one node. A null member is absent on that node:
/// a client shard has no server or checker, and a fault-free node has no
/// injector. The DES is one node that has every source.
struct NodeSources {
  const Metrics* metrics = nullptr;
  server::Server* server = nullptr;
  const net::Network* network = nullptr;
  const fault::FaultInjector* injector = nullptr;
  check::Checker* checker = nullptr;
};

}  // namespace ccsim::runner

#endif  // CCSIM_RUNNER_COUNTERS_H_
