#include "common/wake_signal.hpp"

#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/error.hpp"

namespace cdsflow {

WakeSignal::WakeSignal() : fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  CDSFLOW_EXPECT(fd_ >= 0,
                 std::string("eventfd failed: ") + std::strerror(errno));
}

WakeSignal::~WakeSignal() { ::close(fd_); }

void WakeSignal::notify() {
  if (pending_.exchange(true)) return;
  const std::uint64_t one = 1;
  // The flag keeps the counter far below its limit, so this cannot fail
  // for a full counter.
  [[maybe_unused]] const auto n = ::write(fd_, &one, sizeof(one));
}

void WakeSignal::clear() {
  std::uint64_t count = 0;
  // EAGAIN when nothing was pending: nothing to drain.
  [[maybe_unused]] const auto n = ::read(fd_, &count, sizeof(count));
  pending_.store(false);
}

}  // namespace cdsflow
