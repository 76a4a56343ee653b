#include "support/subprocess.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "support/logging.h"

extern char** environ;

namespace epvf {

std::string ExitStatus::Describe() const {
  if (exited) return "exit " + std::to_string(code);
  return "signal " + std::to_string(signal);
}

namespace {

ExitStatus FromWaitStatus(int status) {
  ExitStatus out;
  if (WIFEXITED(status)) {
    out.exited = true;
    out.code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    out.exited = false;
    out.signal = WTERMSIG(status);
  } else {
    // Stopped/continued never reaches us (no WUNTRACED); treat anything
    // unexpected as an abnormal end.
    out.exited = true;
    out.code = -1;
  }
  return out;
}

/// pidfd_open(2) via syscall(2) — glibc grew the wrapper late, and the raw
/// call degrades cleanly (-1/ENOSYS) on pre-5.3 kernels. A pidfd on an
/// unreaped child (even a zombie) polls readable once the child exits, which
/// is exactly the readiness signal a supervisor loop wants.
int OpenPidFd(pid_t pid) {
#ifdef SYS_pidfd_open
  return static_cast<int>(::syscall(SYS_pidfd_open, pid, 0u));
#else
  errno = ENOSYS;
  return -1;
#endif
}

/// Sleep-poll fallback for kernels without pidfd_open: checks each child with
/// WNOHANG at a 10 ms cadence until one is ready or the deadline passes.
/// Returns a ready index or -1.
int WaitAnySleepPoll(const std::vector<Subprocess*>& children, double timeout_seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(timeout_seconds));
  while (true) {
    for (std::size_t i = 0; i < children.size(); ++i) {
      Subprocess* child = children[i];
      if (child == nullptr || child->reaped() || child->pid() < 0) continue;
      int status = 0;
      // WNOWAIT keeps the child reapable for the caller's own Poll().
      siginfo_t info;
      info.si_pid = 0;
      if (::waitid(P_PID, static_cast<id_t>(child->pid()), &info, WEXITED | WNOHANG | WNOWAIT) ==
              0 &&
          info.si_pid != 0) {
        return static_cast<int>(i);
      }
      (void)status;
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return -1;
    const auto step = std::min(deadline - now, std::chrono::steady_clock::duration(
                                                   std::chrono::milliseconds(10)));
    std::this_thread::sleep_for(step);
  }
}

}  // namespace

std::optional<Subprocess> Subprocess::Spawn(const SubprocessOptions& options) {
  if (options.argv.empty()) {
    LogWarn("Subprocess: empty argv");
    return std::nullopt;
  }

  // Everything the child needs is materialized before fork(): between fork
  // and execve only async-signal-safe calls (open/dup2/execve/_exit) run, so
  // spawning from a process with live threads (the shared pool) is safe.
  std::vector<char*> argv;
  argv.reserve(options.argv.size() + 1);
  for (const std::string& arg : options.argv) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);

  std::vector<std::string> env_storage;
  std::vector<char*> envp;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) envp.push_back(*e);
  env_storage.reserve(options.env.size());
  for (const std::string& extra : options.env) {
    env_storage.push_back(extra);
    envp.push_back(const_cast<char*>(env_storage.back().c_str()));
  }
  envp.push_back(nullptr);

  // Open redirection targets in the parent so a bad path fails loudly here
  // instead of as a silent exit-127 child.
  int stdout_fd = -1;
  int stderr_fd = -1;
  if (!options.stdout_path.empty()) {
    stdout_fd = ::open(options.stdout_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (stdout_fd < 0) {
      LogWarn("Subprocess: cannot open " + options.stdout_path + ": " + std::strerror(errno));
      return std::nullopt;
    }
  }
  if (!options.stderr_path.empty()) {
    if (options.stderr_path == options.stdout_path) {
      stderr_fd = stdout_fd;
    } else {
      stderr_fd = ::open(options.stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (stderr_fd < 0) {
        LogWarn("Subprocess: cannot open " + options.stderr_path + ": " + std::strerror(errno));
        ::close(stdout_fd);
        return std::nullopt;
      }
    }
  }

  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    LogWarn(std::string("Subprocess: fork failed: ") + std::strerror(errno));
    if (stdout_fd >= 0) ::close(stdout_fd);
    if (stderr_fd >= 0 && stderr_fd != stdout_fd) ::close(stderr_fd);
    return std::nullopt;
  }
  if (pid == 0) {
    // Its own process group, so Kill reaches everything the child spawns
    // (a shell's forked commands, a worker's helpers); and SIGKILL when the
    // spawning thread dies, so a supervisor killed outright — or stopped by
    // a terminal's Ctrl-C, which reaches the foreground group and not this
    // one — never leaves its workers running. The getppid check closes the
    // race with a parent that died before prctl.
    ::setpgid(0, 0);
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) _exit(127);
    if (stdout_fd >= 0) ::dup2(stdout_fd, STDOUT_FILENO);
    if (stderr_fd >= 0) ::dup2(stderr_fd, STDERR_FILENO);
    ::execve(argv[0], argv.data(), envp.data());
    _exit(127);  // exec failed — the conventional shell "command not found" code
  }
  // Set the group from this side too, so a Kill right after Spawn cannot
  // race the child's own setpgid.
  ::setpgid(pid, pid);
  if (stdout_fd >= 0) ::close(stdout_fd);
  if (stderr_fd >= 0 && stderr_fd != stdout_fd) ::close(stderr_fd);

  Subprocess child;
  child.pid_ = pid;
  return child;
}

Subprocess::Subprocess(Subprocess&& other) noexcept
    : pid_(other.pid_), status_(std::move(other.status_)) {
  other.pid_ = -1;
  other.status_.reset();
}

Subprocess& Subprocess::operator=(Subprocess&& other) noexcept {
  if (this == &other) return *this;
  if (pid_ >= 0 && !status_.has_value()) {
    Kill();
    Wait();
  }
  pid_ = other.pid_;
  status_ = std::move(other.status_);
  other.pid_ = -1;
  other.status_.reset();
  return *this;
}

Subprocess::~Subprocess() {
  if (pid_ < 0 || status_.has_value()) return;
  Kill();
  Wait();
}

std::optional<ExitStatus> Subprocess::Poll() {
  if (status_.has_value()) return status_;
  if (pid_ < 0) return std::nullopt;
  int status = 0;
  const pid_t r = ::waitpid(pid_, &status, WNOHANG);
  if (r == 0) return std::nullopt;  // still running
  if (r < 0) {
    // ECHILD etc. — the child is gone but unobservable; report abnormal end.
    status_ = ExitStatus{.exited = true, .code = -1, .signal = 0};
    return status_;
  }
  status_ = FromWaitStatus(status);
  return status_;
}

std::optional<ExitStatus> Subprocess::PollWithDeadline(double timeout_seconds) {
  if (status_.has_value() || pid_ < 0 || timeout_seconds <= 0) return Poll();
  std::vector<Subprocess*> self{this};
  if (WaitAnyReady(self, timeout_seconds) == 0) return Poll();
  return Poll();  // timeout — one last non-blocking check closes the race
}

int Subprocess::WaitAnyReady(const std::vector<Subprocess*>& children, double timeout_seconds) {
  std::vector<struct pollfd> fds;
  std::vector<int> index_of_fd;
  fds.reserve(children.size());
  bool pidfd_ok = true;
  for (std::size_t i = 0; i < children.size(); ++i) {
    const Subprocess* child = children[i];
    if (child == nullptr || child->reaped() || child->pid() < 0) continue;
    const int fd = OpenPidFd(child->pid());
    if (fd < 0) {
      // ENOSYS (old kernel) or EMFILE: tear down what we opened and fall
      // back to the sleep-poll loop for the whole roster.
      pidfd_ok = false;
      break;
    }
    fds.push_back({.fd = fd, .events = POLLIN, .revents = 0});
    index_of_fd.push_back(static_cast<int>(i));
  }

  int ready = -1;
  if (pidfd_ok) {
    if (!fds.empty()) {
      const int timeout_ms =
          timeout_seconds <= 0
              ? 0
              : static_cast<int>(std::min(timeout_seconds * 1000.0, 2147483000.0));
      int r;
      do {
        r = ::poll(fds.data(), fds.size(), timeout_ms);
      } while (r < 0 && errno == EINTR);
      if (r > 0) {
        for (std::size_t i = 0; i < fds.size(); ++i) {
          if (fds[i].revents != 0) {
            ready = index_of_fd[i];
            break;
          }
        }
      }
    }
    for (const struct pollfd& p : fds) ::close(p.fd);
    return ready;
  }
  for (const struct pollfd& p : fds) ::close(p.fd);
  return WaitAnySleepPoll(children, timeout_seconds);
}

ExitStatus Subprocess::Wait() {
  if (status_.has_value()) return *status_;
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  status_ = FromWaitStatus(status);
  return *status_;
}

void Subprocess::Kill(int signal) {
  if (pid_ < 0 || status_.has_value()) return;
  // The whole group: the child and everything it spawned. Until reaped the
  // child (even as a zombie) keeps its group id from being reused.
  ::kill(-pid_, signal);
}

}  // namespace epvf
