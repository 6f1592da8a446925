#include "substrate/realtime.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <ctime>
#include <thread>
#include <utility>

#include "util/macros.h"

namespace ccsim::substrate {
namespace {

/// Ready fds taken from the kernel per poll; more stay ready for the next.
constexpr int kMaxEvents = 64;

}  // namespace

RealtimeSubstrate::RealtimeSubstrate(sim::Simulator* sim)
    : sim_(sim), epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)),
      wake_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  CCSIM_CHECK_MSG(epoll_fd_ >= 0 && wake_fd_ >= 0,
                  "cannot create the loop's epoll set");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  CCSIM_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) == 0);
}

RealtimeSubstrate::~RealtimeSubstrate() {
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

void RealtimeSubstrate::AddSource(int fd, std::function<void()> on_readable) {
  CCSIM_CHECK(fd >= 0);
  const std::size_t slot = static_cast<std::size_t>(fd);
  if (slot >= sources_.size()) {
    sources_.resize(slot + 1);
  }
  CCSIM_CHECK_MSG(sources_[slot] == nullptr, "fd %d is already a source", fd);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  CCSIM_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0);
  sources_[slot] =
      std::make_unique<std::function<void()>>(std::move(on_readable));
}

void RealtimeSubstrate::RemoveSource(int fd) {
  const std::size_t slot = static_cast<std::size_t>(fd);
  if (fd < 0 || slot >= sources_.size() || sources_[slot] == nullptr) {
    return;
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  retired_.push_back(std::move(sources_[slot]));
}

void RealtimeSubstrate::Receive(net::MessagePtr msg) {
  CCSIM_CHECK_MSG(sink_ != nullptr, "message received with no sink");
  sink_(std::move(msg));
}

void RealtimeSubstrate::PostControl(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    control_.push_back(std::move(fn));
  }
  const std::uint64_t one = 1;
  (void)!::write(wake_fd_, &one, sizeof(one));
}

void RealtimeSubstrate::Stop() {
  stop_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  (void)!::write(wake_fd_, &one, sizeof(one));
}

void RealtimeSubstrate::DrainControl() {
  std::deque<std::function<void()>> thunks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    thunks.swap(control_);
  }
  for (std::function<void()>& fn : thunks) {
    fn();
  }
}

bool RealtimeSubstrate::Poll(sim::Ticks timeout) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(timeout / sim::kTicksPerSecond);
  ts.tv_nsec = static_cast<long>(timeout % sim::kTicksPerSecond) * 1000;
  epoll_event events[kMaxEvents];
  const int n = ::epoll_pwait2(epoll_fd_, events, kMaxEvents, &ts, nullptr);
  if (n <= 0) {
    CCSIM_CHECK_MSG(n == 0 || errno == EINTR, "epoll_pwait2 failed");
    return false;
  }
  bool woken = false;
  for (int i = 0; i < n; ++i) {
    const int fd = events[i].data.fd;
    if (fd == wake_fd_) {
      std::uint64_t count = 0;
      (void)!::read(wake_fd_, &count, sizeof(count));
      woken = true;
      continue;
    }
    // An earlier callback of this pass may have removed this source.
    const std::size_t slot = static_cast<std::size_t>(fd);
    if (slot < sources_.size() && sources_[slot] != nullptr) {
      (*sources_[slot])();
    }
  }
  retired_.clear();
  if (woken) {
    DrainControl();
  }
  return true;
}

void RealtimeSubstrate::WaitUntil(sim::Ticks wake) {
  for (;;) {
    const sim::Ticks left = wake - WallTicks();
    if (left > kSpinThresholdTicks) {
      Poll(left);
      return;
    }
    // Stop() writes the eventfd, so a stop also ends the spin here.
    if (Poll(0) || left <= 0) {
      return;
    }
    std::this_thread::yield();
  }
}

std::uint64_t RealtimeSubstrate::Run(sim::Ticks horizon) {
  epoch_ = std::chrono::steady_clock::now();
  std::uint64_t events = 0;
  sim::Ticks wake = 0;  // the first pass only looks
  for (;;) {
    WaitUntil(wake);
    if (stop_.load(std::memory_order_acquire)) {
      break;
    }
    const sim::Ticks wall = WallTicks();
    const sim::Ticks target = wall < horizon ? wall : horizon;
    if (target >= sim_->Now()) {
      // Fire everything due by `target`, then pin the clock to the wall so
      // injections (and the latencies computed from Now()) line up with
      // real time even when the calendar drained early.
      events += sim_->Run(target);
      sim_->AdvanceTo(target);
      if (sim_->stop_requested()) {
        break;
      }
    }
    // Push this step's replies onto the wire before deciding to wait: the
    // peers' next requests depend on them.
    bool flushed = true;
    if (flush_hook_) {
      flushed = flush_hook_();
    }
    if (wall >= horizon) {
      break;
    }
    // Wait until the next calendar entry is due (or the horizon). An empty
    // calendar waits on sources and thunks alone.
    const sim::Ticks next = sim_->PeekNextTime();
    wake = next >= 0 && next < horizon ? next : horizon;
    // Cap each wait so an effectively-infinite horizon (a server waiting
    // for work) never overflows the deadline arithmetic — and retry soon
    // when outbound bytes are still stuck in a full socket buffer.
    const sim::Ticks cap =
        wall + (flushed ? sim::kTicksPerSecond : sim::Ticks{200});
    if (wake > cap) {
      wake = cap;
    }
  }
  // Final flush: hand buffered replies to the kernel so peers that are
  // still running see everything produced before the stop.
  if (flush_hook_) {
    flush_hook_();
  }
  return events;
}

}  // namespace ccsim::substrate
