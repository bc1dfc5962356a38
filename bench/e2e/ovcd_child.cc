#include "ovcd_child.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace ovcbench {

namespace {

constexpr std::chrono::seconds kStartTimeout{120};
constexpr std::chrono::seconds kStopTimeout{10};

}  // namespace

bool OvcdChild::Start(const std::string& binary,
                      const std::vector<std::string>& args,
                      std::string* error) {
  Stop();
  std::vector<std::string> storage;
  storage.push_back(binary);
  storage.insert(storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& s : storage) argv.push_back(s.data());
  argv.push_back(nullptr);

  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  const pid_t parent = ::getpid();
  const auto start = std::chrono::steady_clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    ::close(fds[0]);
    ::close(fds[1]);
    return false;
  }
  if (pid == 0) {
    // Only async-signal-safe calls until exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(fds[1], STDOUT_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  pid_ = pid;
  out_fd_ = fds[0];
  if (::clock_getcpuclockid(pid_, &cpu_clock_) != 0) {
    *error = "clock_getcpuclockid failed";
    Stop();
    return false;
  }

  // ovcd prints "ovcd listening on HOST:PORT (...)" once it accepts.
  std::string out;
  for (;;) {
    const size_t at = out.find("listening on ");
    if (at != std::string::npos && out.find('\n', at) != std::string::npos) {
      const size_t colon = out.find(':', at);
      port_ = colon == std::string::npos
                  ? 0
                  : static_cast<uint16_t>(
                        std::strtoul(out.c_str() + colon + 1, nullptr, 10));
      break;
    }
    const auto left = kStartTimeout - (std::chrono::steady_clock::now() - start);
    if (left <= std::chrono::steady_clock::duration::zero()) {
      *error = "ovcd did not start listening within 120 s";
      Stop();
      return false;
    }
    pollfd p = {out_fd_, POLLIN, 0};
    const int ready = ::poll(
        &p, 1,
        static_cast<int>(
            std::chrono::duration_cast<std::chrono::milliseconds>(left).count() +
            1));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    char buf[4096];
    const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      *error = "ovcd exited before listening";
      Stop();
      return false;
    }
    out.append(buf, static_cast<size_t>(n));
  }
  startup_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (port_ == 0) {
    *error = "could not parse ovcd's port from: " + out;
    Stop();
    return false;
  }
  return true;
}

double OvcdChild::CpuSeconds() const {
  timespec ts = {};
  if (pid_ < 0 || ::clock_gettime(cpu_clock_, &ts) != 0) return -1;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

bool OvcdChild::Stop() {
  if (pid_ < 0) return true;
  ::kill(pid_, SIGTERM);
  int status = 0;
  bool clean = false;
  const auto deadline = std::chrono::steady_clock::now() + kStopTimeout;
  for (;;) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      break;
    }
    if (r < 0 && errno != EINTR) break;  // already reaped: nothing to kill
    if (std::chrono::steady_clock::now() >= deadline) {
      ::kill(pid_, SIGKILL);
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // The stdout pipe stays open until the child is reaped, so its shutdown
  // message never meets a closed pipe.
  ::close(out_fd_);
  out_fd_ = -1;
  pid_ = -1;
  port_ = 0;
  return clean;
}

}  // namespace ovcbench
