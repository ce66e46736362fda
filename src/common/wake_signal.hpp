/// \file wake_signal.hpp
/// A coalescing cross-thread wakeup that a poll() loop can wait on.
///
/// notify() (any thread) makes fd() readable; the consumer calls clear() on
/// its own thread, then reads whatever state the notifiers published. An
/// atomic flag keeps at most one notification pending, so a burst of
/// notify() calls costs one eventfd write, and the fd is nonblocking on
/// both ends: notify() never blocks and never fails for a full buffer.
///
/// Ordering contract (no lost wakeup): a notifier publishes its state
/// *before* notify(); the consumer calls clear() *before* it reads that
/// state. clear() drains the fd first and re-arms the flag second, so a
/// notify() racing with clear() either lands before the drain (its state
/// is then visible to the read that follows) or sees the re-armed flag and
/// writes again (the fd stays readable). The worst case is one spurious
/// wake, never a missed one.

#pragma once

#include <atomic>

namespace cdsflow {

class WakeSignal {
 public:
  /// Creates the eventfd; throws cdsflow::Error when the system refuses.
  WakeSignal();
  ~WakeSignal();

  WakeSignal(const WakeSignal&) = delete;
  WakeSignal& operator=(const WakeSignal&) = delete;

  /// Readable while a notification is pending. Owned by this object: open
  /// until it is destroyed.
  int fd() const { return fd_; }

  /// Thread-safe. Makes fd() readable unless a notification is already
  /// pending.
  void notify();

  /// Consumer thread: drains fd() and re-arms notify().
  void clear();

 private:
  int fd_ = -1;
  std::atomic<bool> pending_{false};
};

}  // namespace cdsflow
