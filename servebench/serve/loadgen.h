#ifndef PROVABS_SERVEBENCH_SERVE_LOADGEN_H_
#define PROVABS_SERVEBENCH_SERVE_LOADGEN_H_

/// Open-loop load over pipelined non-blocking connections. One thread
/// sends every request of a pre-encoded schedule at its due time whatever
/// the server is doing, reads responses as they arrive, and times each
/// request from when it was DUE, so a stall is charged to every request
/// it delays and not only to the one in progress.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>

#include <cstring>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "servebench/serve/common.h"
#include "server/wire_protocol.h"

namespace provabs::servebench {

enum class Verb : uint8_t { kEvaluate, kScenario, kCompress, kAppend };

inline const char* VerbName(Verb v) {
  switch (v) {
    case Verb::kEvaluate: return "evaluate";
    case Verb::kScenario: return "scenario";
    case Verb::kCompress: return "compress";
    case Verb::kAppend: return "append";
  }
  return "unknown";
}

/// Which connections may carry a request.
enum class Route : uint8_t {
  kAny,     ///< the least-loaded connection
  kWriter,  ///< connection 0 only, so writes apply in schedule order
  kReader,  ///< the least-loaded connection other than 0
};

/// [u32 little-endian length][payload], as the server reads it.
inline std::string Frame(const std::string& payload) {
  const uint32_t n = static_cast<uint32_t>(payload.size());
  std::string out;
  out.reserve(payload.size() + 4);
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((n >> (8 * i)) & 0xFF));
  out += payload;
  return out;
}

/// One request of a step, encoded before the step starts.
struct Planned {
  int64_t offset_ns = 0;  ///< due time relative to the step start
  std::string frame;
  Verb verb = Verb::kEvaluate;
  Route route = Route::kAny;
  /// Index of an earlier request this one is pipelined behind (a writer's
  /// compress follows its append); its latency starts when that one
  /// completes if that is later than its own due time. -1 = none.
  int32_t after = -1;
  uint32_t param = 0;   ///< workload-specific request parameters
  bool sample = false;  ///< keep the decoded response for verification
};

/// What happened to one planned request.
struct Outcome {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;  ///< when the generator handled it (lag = sent - due)
  int64_t done_ns = 0;
  bool ok = false;  ///< answered without error (false for the unanswered)
  uint32_t response_bytes = 0;
  uint64_t scenario_count = 0;
  std::optional<Response> response;  ///< sampled requests only
};

/// A set of TCP connections to one server.
class Connections {
 public:
  Connections() = default;
  Connections(const Connections&) = delete;
  Connections& operator=(const Connections&) = delete;
  ~Connections() { Close(); }

  Status Open(uint16_t port, size_t count) {
    Close();
    for (size_t i = 0; i < count; ++i) {
      int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (fd < 0) return Status::Internal("socket failed");
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        return Status::Internal(std::string("connect failed: ") + std::strerror(errno));
      }
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
      conns_.emplace_back();
      conns_.back().fd = fd;
    }
    return Status::OK();
  }

  void Close() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
    conns_.clear();
  }

  /// A blocking RPC on connection `i`, which must have nothing in flight
  /// (control requests run between steps).
  StatusOr<Response> Call(size_t i, const std::string& payload,
                          int64_t timeout_ms = 60000) {
    Status w = WriteFrame(conns_[i].fd, payload, timeout_ms);
    if (!w.ok()) return w;
    StatusOr<std::string> frame = ReadFrame(conns_[i].fd, timeout_ms);
    if (!frame.ok()) return frame.status();
    return DecodeResponse(*frame);
  }

  /// Sends `plan` open-loop starting now and collects every response, or
  /// gives up on the stragglers `drain_ns` after the last due time.
  std::vector<Outcome> Run(const std::vector<Planned>& plan, int64_t drain_ns) {
    // Timer slack bounds how late ppoll wakes us for the next due send.
    ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
    std::vector<Outcome> out(plan.size());
    for (Conn& c : conns_) {
      c.out.clear();
      c.out_off = 0;
      c.in.clear();
      c.inflight.clear();
    }
    const int64_t start = NowNs();
    for (size_t i = 0; i < plan.size(); ++i) out[i].due_ns = start + plan[i].offset_ns;
    const int64_t give_up =
        (plan.empty() ? start : out.back().due_ns) + drain_ns;
    size_t next = 0;
    size_t outstanding = 0;
    std::vector<pollfd> fds(conns_.size());
    while (next < plan.size() || outstanding > 0) {
      int64_t now = NowNs();
      if (now >= give_up) break;
      while (next < plan.size() && out[next].due_ns <= now) {
        const size_t c = Pick(plan[next].route);
        out[next].sent_ns = now;
        if (c == conns_.size()) {  // no live connection may carry it
          out[next].done_ns = now;
        } else {
          conns_[c].out += plan[next].frame;
          conns_[c].inflight.push_back(next);
          ++outstanding;
        }
        ++next;
      }
      for (size_t c = 0; c < conns_.size(); ++c) Flush(c, out, &outstanding);
      int64_t wait_ns = give_up - now;
      if (next < plan.size()) wait_ns = std::min(wait_ns, out[next].due_ns - now);
      wait_ns = std::max<int64_t>(wait_ns, 0);
      for (size_t c = 0; c < conns_.size(); ++c) {
        fds[c].fd = conns_[c].fd;
        fds[c].events = static_cast<short>(
            POLLIN | (conns_[c].out.size() > conns_[c].out_off ? POLLOUT : 0));
        fds[c].revents = 0;
      }
      timespec ts{static_cast<time_t>(wait_ns / 1000000000),
                  static_cast<long>(wait_ns % 1000000000)};
      int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
      if (ready <= 0) continue;
      for (size_t c = 0; c < conns_.size(); ++c) {
        if (fds[c].revents & (POLLIN | POLLERR | POLLHUP)) {
          Receive(c, plan, out, &outstanding);
        }
      }
    }
    // Stragglers past the drain cap count as failed; their connections
    // are out of sync with the schedule and must not be reused.
    for (Conn& c : conns_) {
      if (!c.inflight.empty() && c.fd >= 0) {
        ::close(c.fd);
        c.fd = -1;
      }
    }
    return out;
  }

  /// True when every connection survived the last step.
  bool healthy() const {
    for (const Conn& c : conns_) {
      if (c.fd < 0) return false;
    }
    return !conns_.empty();
  }

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    size_t out_off = 0;
    std::string in;
    std::deque<size_t> inflight;
  };

  size_t Pick(Route route) const {
    size_t best = conns_.size();
    const size_t first = route == Route::kReader && conns_.size() > 1 ? 1 : 0;
    const size_t last = route == Route::kWriter ? 1 : conns_.size();
    for (size_t c = first; c < last; ++c) {
      if (conns_[c].fd < 0) continue;
      if (best == conns_.size() ||
          conns_[c].inflight.size() < conns_[best].inflight.size()) {
        best = c;
      }
    }
    return best;
  }

  void Fail(size_t c, std::vector<Outcome>& out, size_t* outstanding) {
    Conn& conn = conns_[c];
    const int64_t now = NowNs();
    for (size_t idx : conn.inflight) {
      out[idx].done_ns = now;
      --*outstanding;
    }
    conn.inflight.clear();
    ::close(conn.fd);
    conn.fd = -1;
  }

  void Flush(size_t c, std::vector<Outcome>& out, size_t* outstanding) {
    Conn& conn = conns_[c];
    while (conn.fd >= 0 && conn.out_off < conn.out.size()) {
      ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                         conn.out.size() - conn.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      Fail(c, out, outstanding);
      return;
    }
    if (conn.out_off == conn.out.size()) {
      conn.out.clear();
      conn.out_off = 0;
    }
  }

  void Receive(size_t c, const std::vector<Planned>& plan,
               std::vector<Outcome>& out, size_t* outstanding) {
    Conn& conn = conns_[c];
    char buf[1 << 16];
    while (conn.fd >= 0) {
      ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        conn.in.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      Fail(c, out, outstanding);  // EOF or error
      return;
    }
    const int64_t now = NowNs();
    size_t pos = 0;
    while (conn.in.size() - pos >= 4) {
      const unsigned char* h =
          reinterpret_cast<const unsigned char*>(conn.in.data() + pos);
      const uint32_t len = static_cast<uint32_t>(h[0]) |
                           static_cast<uint32_t>(h[1]) << 8 |
                           static_cast<uint32_t>(h[2]) << 16 |
                           static_cast<uint32_t>(h[3]) << 24;
      if (conn.in.size() - pos - 4 < len) break;
      if (conn.inflight.empty()) {  // a response nobody asked for
        Fail(c, out, outstanding);
        return;
      }
      const size_t idx = conn.inflight.front();
      conn.inflight.pop_front();
      --*outstanding;
      Outcome& o = out[idx];
      o.done_ns = now;
      o.response_bytes = len + 4;
      StatusOr<Response> resp =
          DecodeResponse(std::string_view(conn.in.data() + pos + 4, len));
      o.ok = resp.ok() && resp->ok();
      if (resp.ok()) {
        o.scenario_count = resp->scenario_count;
        if (plan[idx].sample) o.response = std::move(*resp);
      }
      pos += 4 + len;
    }
    conn.in.erase(0, pos);
  }

  std::vector<Conn> conns_;
};

}  // namespace provabs::servebench

#endif  // PROVABS_SERVEBENCH_SERVE_LOADGEN_H_
