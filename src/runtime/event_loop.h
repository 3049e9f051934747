// Single-threaded event loop: tasks posted from any thread, one-shot
// timers, and readable file descriptors, all executed on the loop
// thread. One loop per node gives the same run-to-completion semantics
// as the simulator, on real threads; a UDP node's sockets are watched by
// its own loop, so one thread does all of a node's work.
//
// The loop sleeps in ppoll() on an eventfd plus the watched fds, until
// the earliest timer (nanosecond timeout). Post, SetTimer and Stop write
// the eventfd only while the loop is asleep, so work handed to a busy
// loop, or posted by the loop to itself, costs no syscall. Posted tasks
// run in batches: each pass swaps the whole queue out under one lock.
//
// Timers live in the same timer wheel as the simulator's events
// (common/timer_wheel.h), guarded by the loop mutex: arming and
// cancelling are O(1) from any thread, and a TimerId is the wheel
// handle, so cancelling a timer that already fired is a no-op.
#pragma once

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/timer_wheel.h"
#include "common/types.h"

namespace mrp::runtime {

class EventLoop {
 public:
  EventLoop()
      : epoch_(std::chrono::steady_clock::now()),
        wake_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
    if (wake_fd_ < 0) throw std::runtime_error("eventfd() failed");
  }
  ~EventLoop() {
    Stop();
    ::close(wake_fd_);
  }

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Runs `on_readable` on the loop thread whenever `fd` is readable; it
  // should drain the fd. Only before Start(): the watched set is fixed
  // while the loop runs. The fd must stay open until the loop stops.
  void Watch(int fd, std::function<void()> on_readable) {
    std::scoped_lock lock(mu_);
    if (running_) throw std::logic_error("EventLoop::Watch after Start");
    watches_.push_back({fd, std::move(on_readable)});
  }

  void Start() {
    std::scoped_lock lock(mu_);
    if (running_) return;
    running_ = true;
    thread_ = std::thread([this] { Run(); });
  }

  void Stop() {
    bool wake = false;
    {
      std::scoped_lock lock(mu_);
      if (!running_) return;
      running_ = false;
      wake = TakeSleeperLocked();
    }
    if (wake) Wake();
    if (thread_.joinable()) thread_.join();
  }

  // Monotonic time since the loop's construction.
  TimePoint now() const {
    return std::chrono::duration_cast<Duration>(std::chrono::steady_clock::now() -
                                                epoch_);
  }

  void Post(std::function<void()> fn) {
    bool wake = false;
    {
      std::scoped_lock lock(mu_);
      tasks_.push_back(std::move(fn));
      wake = TakeSleeperLocked();
    }
    if (wake) Wake();
  }

  TimerId SetTimer(Duration delay, std::function<void()> fn) {
    bool wake = false;
    TimerId id = kNoTimer;
    {
      std::scoped_lock lock(mu_);
      id = timers_.Insert(now() + delay, std::move(fn));
      wake = TakeSleeperLocked();  // the new timer may be due earliest
    }
    if (wake) Wake();
    return id;
  }

  void CancelTimer(TimerId id) {
    std::scoped_lock lock(mu_);
    timers_.Cancel(id);
  }

  bool on_loop_thread() const { return std::this_thread::get_id() == thread_.get_id(); }

 private:
  struct WatchedFd {
    int fd;
    std::function<void()> on_readable;
  };

  // True (once per sleep) when the loop is asleep and must be woken.
  bool TakeSleeperLocked() {
    if (!asleep_) return false;
    asleep_ = false;
    return true;
  }

  void Wake() {
    const std::uint64_t one = 1;
    ssize_t n;
    do {
      n = ::write(wake_fd_, &one, sizeof one);
    } while (n < 0 && errno == EINTR);
  }

  void Run() {
    // pollfds[0] is the wake-up eventfd; the rest follow watches_.
    std::vector<pollfd> pollfds{{wake_fd_, POLLIN, 0}};
    for (const auto& w : watches_) pollfds.push_back({w.fd, POLLIN, 0});
    std::vector<std::function<void()>> batch;
    std::unique_lock lock(mu_);
    while (running_) {
      // Run due timers.
      while (auto* t = timers_.PeekMin()) {
        if (t->at > now()) break;
        auto fn = timers_.Release(timers_.TakeMin());
        lock.unlock();
        fn();
        lock.lock();
      }
      if (!running_) break;
      // With tasks waiting, only look at the fds (timeout 0). Otherwise
      // sleep until the earliest timer, a wake-up or a readable fd.
      const bool idle = tasks_.empty();
      timespec timeout{};
      const timespec* until = &timeout;
      if (idle) {
        if (const auto* t = timers_.PeekMin()) {
          const auto left = std::max(Duration{0}, t->at - now());
          timeout.tv_sec = static_cast<std::time_t>(left / Seconds(1));
          timeout.tv_nsec = static_cast<long>((left % Seconds(1)).count());
        } else {
          until = nullptr;
        }
        asleep_ = true;
      }
      if (idle || pollfds.size() > 1) {
        lock.unlock();
        const int ready = ::ppoll(pollfds.data(), pollfds.size(), until, nullptr);
        if (idle) {
          lock.lock();
          asleep_ = false;
          lock.unlock();
        }
        if (ready > 0) {
          if (pollfds[0].revents != 0) {
            std::uint64_t count = 0;
            [[maybe_unused]] const ssize_t n = ::read(wake_fd_, &count, sizeof count);
          }
          for (std::size_t i = 1; i < pollfds.size(); ++i) {
            if (pollfds[i].revents != 0) watches_[i - 1].on_readable();
          }
        }
        lock.lock();
      }
      // Drain the posted tasks, including those the fd callbacks posted.
      batch.swap(tasks_);
      lock.unlock();
      for (auto& fn : batch) fn();
      batch.clear();
      lock.lock();
    }
  }

  std::chrono::steady_clock::time_point epoch_;
  const int wake_fd_;
  mutable std::mutex mu_;
  bool running_ = false;
  // The loop is in (or about to enter) ppoll() with no tasks queued; a
  // waker that clears it writes the eventfd.
  bool asleep_ = false;
  std::vector<std::function<void()>> tasks_;
  std::vector<WatchedFd> watches_;
  TimerWheel<std::function<void()>> timers_;
  std::thread thread_;  // last: it runs on every member above
};

}  // namespace mrp::runtime
