// real_loopback: the real substrate in-process, one ServerNode and one
// ClientShard over one TCP loopback connection. The untraced run calls the
// public runner::RunRealExperiment; the traced run builds the same topology
// from the public ServerNode/ClientShard/Tcp*Transport API (as ccserve and
// ccload do) with timing decorators at the transport seam.

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ccbench.h"
#include "runner/real_experiment.h"
#include "substrate/node.h"
#include "substrate/tcp.h"

namespace ccbench {
namespace {

using ccsim::config::ExperimentConfig;
using ccsim::net::Message;

constexpr double kWarmupSeconds = 0.25;
/// Wall seconds of one measurement window. Windows are short so that a run
/// holds many: other work on a shared host slows some of them, and the
/// fastest window is the steadiest estimate of the program's own cost.
constexpr double kWindowSeconds = 0.5;
/// Server loop horizon: the loop ends on RealtimeSubstrate::Stop instead.
constexpr ccsim::sim::Ticks kForever =
    std::numeric_limits<ccsim::sim::Ticks>::max() / 4;
/// Inbound messages kept for the codec replay: one in kSampleEvery, per node.
constexpr std::uint64_t kSampleEvery = 16;
constexpr std::size_t kMaxSamples = 2048;

/// One window's outcome, from either topology.
struct Window {
  double commits = 0;
  double window_s = 0;
  double setup_s = 0;
  double cpu_s = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  ccsim::runner::RunResult result;
};

/// Applies the real_loopback correctness contract to one window.
void CheckWindow(const ccsim::runner::RunResult& r, int clients,
                 Report* report) {
  report->attempted += r.attempts_started;
  report->failed += r.transactions_lost + r.unknown_outcomes +
                    static_cast<std::uint64_t>(r.stuck_clients);
  if (r.commits == 0) {
    report->Fail("real_loopback: no commits in the window");
  }
  if (r.transactions_lost != 0 || r.unknown_outcomes != 0) {
    report->Fail("real_loopback: lost or unknown-outcome transactions");
  }
  const double in_flight =
      std::fabs(static_cast<double>(r.attempts_started) -
                static_cast<double>(r.commits + r.aborts));
  if (in_flight > clients) {
    report->Fail("real_loopback: attempts do not conserve (started " +
                 std::to_string(r.attempts_started) + ", ended " +
                 std::to_string(r.commits + r.aborts) + ")");
  }
}

Window RunUntraced(const ExperimentConfig& cfg, double window_s,
                   Report* report) {
  ccsim::runner::RealRunOptions options;
  options.warmup_seconds = kWarmupSeconds;
  options.duration_seconds = window_s;
  options.shards = 1;
  options.raw_speed = true;
  Window w;
  const double cpu0 = CpuSeconds();
  const Clock::time_point t0 = Clock::now();
  auto run = ccsim::runner::RunRealExperiment(cfg, options);
  const double call_s = SecondsSince(t0);
  w.cpu_s = CpuSeconds() - cpu0;
  if (!run.ok()) {
    report->Fail("RunRealExperiment: " + run.status().ToString());
    return w;
  }
  const ccsim::runner::RunResult& r = run.ValueOrDie();
  w.result = r;
  w.commits = static_cast<double>(r.commits);
  w.window_s = r.measured_seconds;
  w.setup_s = call_s - r.wall_seconds;
  w.p50_ms = 1e3 * r.response_p50_s;
  w.p99_ms = 1e3 * r.response_p99_s;
  CheckWindow(w.result, cfg.system.num_clients, report);
  return w;
}

// --- traced topology -----------------------------------------------------------

/// Counters of one node's wire seam. Each counter has one writer, that
/// node's loop thread; the shard's warmup event and the harvest read them.
struct WireProbe {
  std::atomic<std::uint64_t> delivers{0};
  std::atomic<std::uint64_t> deliver_ns{0};
  std::atomic<std::uint64_t> flushes{0};
  std::atomic<std::uint64_t> flush_ns{0};
  std::atomic<std::uint64_t> inbound{0};
  std::vector<Message> samples;  // loop thread only until joined
};

void Bump(std::atomic<std::uint64_t>& counter, std::uint64_t by) {
  counter.store(counter.load(std::memory_order_relaxed) + by,
                std::memory_order_relaxed);
}

std::uint64_t NanosSince(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

/// Times and counts every Deliver into the wrapped TCP transport.
class TimingTransport : public ccsim::net::Transport {
 public:
  TimingTransport(ccsim::net::Transport* inner, WireProbe* probe)
      : inner_(inner), probe_(probe) {}

  void Deliver(const Message& msg) override {
    const Clock::time_point t0 = Clock::now();
    inner_->Deliver(msg);
    Bump(probe_->deliver_ns, NanosSince(t0));
    Bump(probe_->delivers, 1);
  }
  bool Flush() override { return inner_->Flush(); }

 private:
  ccsim::net::Transport* inner_;
  WireProbe* probe_;
};

/// Installs the probe on one node: transport decorator, timed flush hook,
/// counting inbound filter.
template <typename Node>
void InstallProbe(Node* node, ccsim::net::Transport* tcp,
                  TimingTransport* decorator, WireProbe* probe) {
  node->network().set_transport(decorator);
  node->substrate().set_flush_hook([tcp, probe] {
    const Clock::time_point t0 = Clock::now();
    const bool flushed = tcp->Flush();
    Bump(probe->flush_ns, NanosSince(t0));
    Bump(probe->flushes, 1);
    return flushed;
  });
  node->InstallInboundFilter([probe](const Message& msg) {
    const std::uint64_t n = probe->inbound.load(std::memory_order_relaxed);
    if (n % kSampleEvery == 0 && probe->samples.size() < kMaxSamples) {
      probe->samples.push_back(msg);
    }
    Bump(probe->inbound, 1);
    return true;
  });
}

struct ProbeTotals {
  std::uint64_t delivers = 0;
  std::uint64_t deliver_ns = 0;
  std::uint64_t flushes = 0;
  std::uint64_t flush_ns = 0;
  std::uint64_t inbound = 0;
};

ProbeTotals Read(const WireProbe& a, const WireProbe& b) {
  auto sum = [](const std::atomic<std::uint64_t>& x,
                const std::atomic<std::uint64_t>& y) {
    return x.load(std::memory_order_relaxed) +
           y.load(std::memory_order_relaxed);
  };
  return {sum(a.delivers, b.delivers), sum(a.deliver_ns, b.deliver_ns),
          sum(a.flushes, b.flushes), sum(a.flush_ns, b.flush_ns),
          sum(a.inbound, b.inbound)};
}

struct TracedWindow {
  Window window;
  ProbeTotals at_warmup;
  ProbeTotals at_end;
  double warmup_commits = 0;
  double loop_events = 0;
};

TracedWindow RunTraced(const ExperimentConfig& cfg_in, double window_s,
                       WireProbe* server_probe, WireProbe* shard_probe,
                       Report* report) {
  using namespace ccsim;
  TracedWindow out;
  const ExperimentConfig cfg = substrate::RawSpeedConfig(cfg_in);
  const int clients = cfg.system.num_clients;
  const std::uint64_t seed = cfg.control.seed;
  const double cpu0 = CpuSeconds();
  const Clock::time_point t0 = Clock::now();

  substrate::ServerNode server_node(cfg, seed);
  const substrate::Hello hello = substrate::MakeHello(cfg);
  std::string error;
  auto server_tcp = substrate::TcpServerTransport::Listen(
      0, hello, &server_node.substrate(), &error);
  if (server_tcp == nullptr) {
    report->Fail("listen: " + error);
    return out;
  }
  TimingTransport server_decorator(server_tcp.get(), server_probe);
  InstallProbe(&server_node, server_tcp.get(), &server_decorator,
               server_probe);
  server_node.Start();
  std::uint64_t server_events = 0;
  std::thread server_thread([&server_node, &server_events] {
    server_events = server_node.RunLoop(kForever);
  });

  substrate::ClientShard shard(cfg, seed, 0, clients);
  substrate::Hello shard_hello = hello;
  shard_hello.client_lo = 0;
  shard_hello.client_hi = clients;
  auto shard_tcp = substrate::TcpClientTransport::Connect(
      "127.0.0.1", server_tcp->port(), shard_hello, &shard.substrate(),
      &error);
  std::uint64_t shard_events = 0;
  const Clock::time_point run_start = Clock::now();
  if (shard_tcp == nullptr) {
    report->Fail("connect: " + error);
  } else {
    TimingTransport shard_decorator(shard_tcp.get(), shard_probe);
    InstallProbe(&shard, shard_tcp.get(), &shard_decorator, shard_probe);
    shard.Start();
    // Fires just before RunLoop's own window reset at the same tick (the
    // calendar breaks ties first-in first-out).
    const sim::Ticks warmup = sim::SecondsToTicks(kWarmupSeconds);
    runner::Metrics* metrics = &shard.metrics();
    shard.substrate().sim().ScheduleAt(
        warmup, [&out, metrics, server_probe, shard_probe] {
          out.at_warmup = Read(*server_probe, *shard_probe);
          out.warmup_commits = static_cast<double>(metrics->commits());
        });
    std::thread shard_thread([&] {
      shard_events = shard.RunLoop(warmup, sim::SecondsToTicks(window_s));
    });
    shard_thread.join();
    shard_tcp->Close();
  }
  const double run_s = SecondsSince(run_start);
  server_node.substrate().Stop();
  server_thread.join();
  server_tcp->Close();
  out.at_end = Read(*server_probe, *shard_probe);

  const runner::Metrics& m = shard.metrics();
  Window& w = out.window;
  w.result.commits = m.commits();
  w.result.aborts = m.aborts();
  w.result.attempts_started = m.attempts_started();
  w.result.transactions_lost = m.transactions_lost();
  w.result.unknown_outcomes = m.unknown_outcomes();
  w.commits = static_cast<double>(m.commits());
  w.window_s = window_s;
  w.cpu_s = CpuSeconds() - cpu0;
  w.setup_s = SecondsSince(t0) - run_s;
  out.loop_events = static_cast<double>(server_events + shard_events);
  CheckWindow(w.result, clients, report);
  return out;
}

/// Pins the calling thread, and so every thread it starts later, to the CPU
/// it runs on. The workload's four threads then share one core: a message
/// hand-off is a context switch on that core instead of a cross-core wakeup,
/// whose delay on a shared virtual host varies from window to window.
void PinToCurrentCpu() {
  const int cpu = sched_getcpu();
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu < 0 ? 0 : cpu, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    std::fprintf(stderr, "ccbench: could not pin to one CPU; running "
                         "unpinned\n");
  }
}

double PerCommit(double count, double commits) {
  return commits > 0 ? count / commits : 0.0;
}

double BestCommitsPerSecond(const std::vector<Window>& windows) {
  double best = 0;
  for (const Window& w : windows) {
    best = std::max(best, w.commits / w.window_s);
  }
  return best;
}

void ReportUntraced(const std::vector<Window>& windows, Report* report) {
  std::vector<double> setup, p50, p99;
  double cpu = 0, commits = 0;
  for (const Window& w : windows) {
    const double w_cpu = 1e3 * PerCommit(w.cpu_s, w.commits);
    cpu = commits == 0 ? w_cpu : std::min(cpu, w_cpu);
    setup.push_back(w.setup_s);
    p50.push_back(w.p50_ms);
    p99.push_back(w.p99_ms);
    commits += w.commits;
  }
  std::fprintf(stderr, "%zu windows, %.0f commits (latency samples)\n",
               windows.size(), commits);
  report->Metric("commits_per_s", BestCommitsPerSecond(windows), "commits/s");
  report->Metric("commit_p50_ms", Median(p50), "ms");
  report->Metric("commit_p99_ms", Median(p99), "ms");
  report->Metric("latency_samples", commits, "count");
  report->Metric("cpu_ms_per_commit", cpu, "ms");
  report->Metric("setup_s", Median(setup), "s");
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
}

}  // namespace

void RunRealWorkload(const Options& options, const ExperimentConfig& base,
                     Report* report) {
  ExperimentConfig cfg = base;
  cfg.control.seed = options.seed;
  PinToCurrentCpu();
  if (!options.trace) {
    // Fixed windows, each behind its own set-up, until the budget is spent.
    std::vector<Window> results;
    const Clock::time_point start = Clock::now();
    do {
      results.push_back(RunUntraced(cfg, kWindowSeconds, report));
    } while (report->ok() &&
             SecondsSince(start) * (results.size() + 1) / results.size() <=
                 options.seconds);
    ReportUntraced(results, report);
    return;
  }

  // Traced: untraced and traced windows alternate, so trace.overhead_pct
  // compares windows that saw the same host conditions.
  std::vector<Window> plain;
  std::vector<TracedWindow> traced;
  std::vector<Message> samples;
  const Clock::time_point start = Clock::now();
  while (report->ok() &&
         (plain.empty() || SecondsSince(start) * (plain.size() + 1) /
                                   plain.size() <=
                               options.seconds * 0.85)) {
    plain.push_back(RunUntraced(cfg, kWindowSeconds, report));
    WireProbe server_probe;
    WireProbe shard_probe;
    traced.push_back(RunTraced(cfg, kWindowSeconds, &server_probe,
                               &shard_probe, report));
    samples.insert(samples.end(), server_probe.samples.begin(),
                   server_probe.samples.end());
    samples.insert(samples.end(), shard_probe.samples.begin(),
                   shard_probe.samples.end());
  }
  if (!report->ok()) {
    return;
  }

  std::vector<double> deliver_ns, flush_ns, msgs_per_flush, net_msgs, inbound,
      loop_events, aborts;
  std::vector<Window> traced_windows;
  double hit = 0, buffer_hit = 0, deadlocks = 0, writebacks = 0, commits = 0;
  for (const Window& w : plain) {
    hit += w.result.client_hit_ratio / plain.size();
    buffer_hit += w.result.server_buffer_hit_ratio / plain.size();
    deadlocks += static_cast<double>(w.result.deadlock_aborts);
    writebacks += static_cast<double>(w.result.buffer_writebacks);
    commits += w.commits;
  }
  for (const TracedWindow& t : traced) {
    const Window& w = t.window;
    traced_windows.push_back(w);
    const double delivers =
        static_cast<double>(t.at_end.delivers - t.at_warmup.delivers);
    const double flushes =
        static_cast<double>(t.at_end.flushes - t.at_warmup.flushes);
    deliver_ns.push_back(
        static_cast<double>(t.at_end.deliver_ns - t.at_warmup.deliver_ns) /
        delivers);
    flush_ns.push_back(
        static_cast<double>(t.at_end.flush_ns - t.at_warmup.flush_ns) /
        flushes);
    msgs_per_flush.push_back(delivers / flushes);
    net_msgs.push_back(PerCommit(delivers, w.commits));
    inbound.push_back(PerCommit(
        static_cast<double>(t.at_end.inbound - t.at_warmup.inbound),
        w.commits));
    loop_events.push_back(
        PerCommit(t.loop_events, t.warmup_commits + w.commits));
    aborts.push_back(
        PerCommit(static_cast<double>(w.result.aborts), w.commits));
  }
  const ReplayTimes replay =
      ReplayLayers(cfg, 200 * cfg.system.num_clients, /*reps=*/5, report);
  const double codec_ns = ReplayCodec(
      samples, static_cast<std::uint32_t>(cfg.system.page_size_bytes),
      /*reps=*/5, report);

  // The DES kernel does not drive this workload: its calendar is paced by
  // the wall clock, so events and ns per event belong to the substrate.
  report->Metric("sim.events_per_commit", 0.0, "events/commit");
  report->Metric("sim.ns_per_event", 0.0, "ns");
  report->Metric("net.msgs_per_commit", Median(net_msgs), "msgs/commit");
  report->Metric("workload.next_xact_ns", replay.next_xact_ns, "ns");
  report->Metric("client.hit_ratio", hit, "ratio");
  report->Metric("client.access_ns", replay.access_ns, "ns");
  report->Metric("client.end_xact_ns", replay.end_xact_ns, "ns");
  report->Metric("proto.aborts_per_commit", Median(aborts), "aborts/commit");
  report->Metric("lock.acquire_ns", replay.lock_ns, "ns");
  report->Metric("lock.deadlocks_per_commit", PerCommit(deadlocks, commits),
                 "count/commit");
  report->Metric("storage.buffer_hit_ratio", buffer_hit, "ratio");
  report->Metric("storage.writebacks_per_commit",
                 PerCommit(writebacks, commits), "count/commit");
  report->Metric("check.on_commit_ns", replay.check_ns, "ns");
  report->Metric("check.overhead_pct", 0.0, "%");
  report->Metric("substrate.deliver_ns", Median(deliver_ns), "ns");
  report->Metric("substrate.flush_ns", Median(flush_ns), "ns");
  report->Metric("substrate.msgs_per_flush", Median(msgs_per_flush),
                 "msgs/flush");
  report->Metric("substrate.inbound_msgs_per_commit", Median(inbound),
                 "msgs/commit");
  report->Metric("substrate.loop_events_per_commit", Median(loop_events),
                 "events/commit");
  report->Metric("substrate.codec_ns", codec_ns, "ns");
  report->Metric("trace.overhead_pct",
                 100.0 * (BestCommitsPerSecond(plain) /
                              BestCommitsPerSecond(traced_windows) -
                          1.0),
                 "%");
}

}  // namespace ccbench
