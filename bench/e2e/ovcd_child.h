// One ovcd child process, from spawn to reaped exit.

#ifndef OVCBENCH_OVCD_CHILD_H_
#define OVCBENCH_OVCD_CHILD_H_

#include <sys/types.h>

#include <cstdint>
#include <ctime>
#include <string>
#include <vector>

namespace ovcbench {

class OvcdChild {
 public:
  OvcdChild() = default;
  ~OvcdChild() { Stop(); }
  OvcdChild(const OvcdChild&) = delete;
  OvcdChild& operator=(const OvcdChild&) = delete;

  /// Stops the server this object runs, if any, then spawns `binary
  /// args...` and waits for its "listening on" line. The child is killed if
  /// this process dies first. False (with `error` set) when the server does
  /// not come up.
  bool Start(const std::string& binary, const std::vector<std::string>& args,
             std::string* error);

  uint16_t port() const { return port_; }
  /// Wall seconds from spawn to the "listening on" line: catalog
  /// generation plus listener start-up.
  double startup_seconds() const { return startup_seconds_; }

  /// CPU seconds (user + system, every thread, live or exited) the server
  /// has used so far, read from the kernel's per-process CPU clock with
  /// nanosecond resolution.
  double CpuSeconds() const;

  /// SIGTERM, then waits; SIGKILL after 10 s. True when the server exited
  /// cleanly. Idempotent.
  bool Stop();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  clockid_t cpu_clock_ = CLOCK_MONOTONIC;
  uint16_t port_ = 0;
  double startup_seconds_ = 0;
};

}  // namespace ovcbench

#endif  // OVCBENCH_OVCD_CHILD_H_
