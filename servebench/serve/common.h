#ifndef PROVABS_SERVEBENCH_SERVE_COMMON_H_
#define PROVABS_SERVEBENCH_SERVE_COMMON_H_

/// Process, clock, statistics and output helpers of bench_serve, in the
/// shape of the liric `bench_common.h` harness: run a command under a
/// timeout, take medians and percentiles, and report numbers by name.

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace provabs::servebench {

/// Monotonic nanoseconds; every timestamp the harness records uses it.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) * 1e-6; }
inline double NsToUs(int64_t ns) { return static_cast<double>(ns) * 1e-3; }

/// Median of `v` (mean of the two middle values for even sizes); 0 when
/// empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double hi = v[mid];
  return (*std::max_element(v.begin(), v.begin() + mid) + hi) / 2.0;
}

/// Nearest-rank percentile, `p` in (0, 1]; 0 when empty.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[rank - 1];
}

/// The highest percentile the sample supports with at least ten samples
/// beyond it: p99 needs 1,000 samples, p90 100.
inline double SupportedTail(size_t samples) {
  if (samples >= 1000) return 0.99;
  if (samples >= 100) return 0.90;
  return 0.50;
}

/// A spawned child process (the server under test). The destructor kills
/// and reaps a child that is still running, so no exit path leaks it.
class ChildProcess {
 public:
  ChildProcess() = default;
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;
  ~ChildProcess() { Kill(); }

  /// fork + execv `argv[0]` with stdout and stderr appended to `log_path`.
  bool Start(const std::vector<std::string>& argv,
             const std::string& log_path) {
    std::vector<char*> cargv;
    for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      // The server must not outlive a benchmark that is killed.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
        ::close(fd);
      }
      ::execv(cargv[0], cargv.data());
      ::_exit(127);
    }
    return true;
  }

  bool running() const { return pid_ > 0; }

  /// Waits up to `timeout_ms` for the child to exit; true when reaped.
  bool WaitFor(int64_t timeout_ms) {
    if (pid_ <= 0) return true;
    const int64_t deadline = NowNs() + timeout_ms * 1000000;
    while (true) {
      int status = 0;
      pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_ || (r < 0 && errno != EINTR)) {
        pid_ = -1;
        return true;
      }
      if (NowNs() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  /// SIGKILL + reap; a no-op once the child is gone.
  void Kill() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }

  /// User plus system CPU seconds the child has used (/proc/<pid>/stat).
  double CpuSeconds() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string stat((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    // Fields after the parenthesized command name; utime and stime are the
    // 12th and 13th of them.
    const size_t close = stat.rfind(')');
    if (close == std::string::npos) return 0.0;
    std::istringstream rest(stat.substr(close + 1));
    std::string field;
    double ticks = 0;
    for (int i = 1; i <= 13 && rest >> field; ++i) {
      if (i >= 12) ticks += std::atof(field.c_str());
    }
    return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }

  /// A field of /proc/<pid>/status in kB (e.g. "VmHWM"); -1 when absent.
  double StatusKb(const std::string& field) const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind(field + ":", 0) == 0) {
        return std::atof(line.c_str() + field.size() + 1);
      }
    }
    return -1.0;
  }

 private:
  pid_t pid_ = -1;
};

/// One reported number: value, unit, and how many samples it summarizes.
struct Metric {
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
};

/// Metrics of one workload, by name (sorted, so output order is stable).
using MetricMap = std::map<std::string, Metric>;

/// JSON string literal with the escapes our names and messages need.
inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// A double with all its digits (round-trip precision); non-finite values
/// become 0 so the output stays valid JSON.
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace provabs::servebench

#endif  // PROVABS_SERVEBENCH_SERVE_COMMON_H_
