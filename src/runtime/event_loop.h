// Single-threaded event loop: tasks posted from any thread plus one-shot
// timers, executed on the loop thread. One loop per node gives the same
// run-to-completion semantics as the simulator, on real threads.
//
// Timers live in the same timer wheel as the simulator's events
// (common/timer_wheel.h), guarded by the loop mutex: arming and
// cancelling are O(1) from any thread, and a TimerId is the wheel
// handle, so cancelling a timer that already fired is a no-op.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>

#include "common/timer_wheel.h"
#include "common/types.h"

namespace mrp::runtime {

class EventLoop {
 public:
  EventLoop() : epoch_(std::chrono::steady_clock::now()) {}
  ~EventLoop() { Stop(); }

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  void Start() {
    std::scoped_lock lock(mu_);
    if (running_) return;
    running_ = true;
    thread_ = std::thread([this] { Run(); });
  }

  void Stop() {
    {
      std::scoped_lock lock(mu_);
      if (!running_) return;
      running_ = false;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  // Monotonic time since the loop's construction.
  TimePoint now() const {
    return std::chrono::duration_cast<Duration>(std::chrono::steady_clock::now() -
                                                epoch_);
  }

  void Post(std::function<void()> fn) {
    {
      std::scoped_lock lock(mu_);
      tasks_.push_back(std::move(fn));
    }
    cv_.notify_one();
  }

  TimerId SetTimer(Duration delay, std::function<void()> fn) {
    std::scoped_lock lock(mu_);
    const TimerId id = timers_.Insert(now() + delay, std::move(fn));
    cv_.notify_one();
    return id;
  }

  void CancelTimer(TimerId id) {
    std::scoped_lock lock(mu_);
    timers_.Cancel(id);
  }

  bool on_loop_thread() const { return std::this_thread::get_id() == thread_.get_id(); }

 private:
  void Run() {
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
      if (!tasks_.empty()) {
        auto fn = std::move(tasks_.front());
        tasks_.pop_front();
        lock.unlock();
        fn();
        lock.lock();
        continue;
      }
      // Sleep until the earliest timer is due, or until a Post, Stop or
      // a newly armed timer, which may be due earlier.
      const std::uint64_t armed = timers_.inserted();
      const auto woken = [this, armed] {
        return !running_ || !tasks_.empty() || timers_.inserted() != armed;
      };
      if (const auto* t = timers_.PeekMin()) {
        cv_.wait_until(lock, epoch_ + t->at, woken);
      } else {
        cv_.wait(lock, woken);
      }
    }
  }

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::thread thread_;
  bool running_ = false;
  std::deque<std::function<void()>> tasks_;
  TimerWheel<std::function<void()>> timers_;
};

}  // namespace mrp::runtime
