#include "server/wire_protocol.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <poll.h>
#include <sys/socket.h>
#include <tuple>
#include <type_traits>
#include <unistd.h>

#include "common/macros.h"
#include "io/byte_stream.h"

namespace provabs {

namespace {

constexpr char kMagic[4] = {'P', 'V', 'A', 'B'};

// ---------------------------------------------------------- field lists ----
//
// Every message body, written down once in wire order. A member is coded by
// its type (see Put/Get below); Flags() packs members into one byte, low bit
// first, where a bool takes one bit and Bits<N>(&member) takes N.

template <typename Member, unsigned kWidth>
struct BitField {
  static constexpr unsigned kBits = kWidth;
  static constexpr unsigned kMask = (1u << kWidth) - 1;
  Member member;
};
template <unsigned kWidth, typename Member>
constexpr BitField<Member, kWidth> Bits(Member member) {
  return {member};
}
template <typename M>
constexpr BitField<bool M::*, 1> AsBitField(bool M::*member) {
  return {member};
}
template <typename Member, unsigned kWidth>
constexpr BitField<Member, kWidth> AsBitField(BitField<Member, kWidth> f) {
  return f;
}

template <typename... BitFields>
struct FlagByte {
  std::tuple<BitFields...> fields;
};
template <typename... Members>
constexpr auto Flags(Members... members) {
  return FlagByte<decltype(AsBitField(members))...>{{AsBitField(members)...}};
}

constexpr auto Fields(const LoadRequest*) {
  using M = LoadRequest;
  return std::make_tuple(&M::artifact, &M::polys_bytes, &M::forests);
}
constexpr auto Fields(const CompressRequest*) {
  using M = CompressRequest;
  return std::make_tuple(&M::artifact, &M::forest, &M::algo, &M::bound);
}
constexpr auto Fields(const EvaluateRequest*) {
  using M = EvaluateRequest;
  return std::make_tuple(&M::artifact, &M::assignments, &M::compressed,
                         &M::forest, &M::algo, &M::bound, &M::eval_backend);
}
constexpr auto Fields(const InfoRequest*) {
  return std::make_tuple(&InfoRequest::artifact);
}
constexpr auto Fields(const TradeoffRequest*) {
  return std::make_tuple(&TradeoffRequest::artifact, &TradeoffRequest::forest);
}
constexpr auto Fields(const ShutdownRequest*) { return std::make_tuple(); }
constexpr auto Fields(const ListAlgosRequest*) { return std::make_tuple(); }
constexpr auto Fields(const ListBackendsRequest*) { return std::make_tuple(); }
constexpr auto Fields(const EvaluateScenarioProgramRequest*) {
  using M = EvaluateScenarioProgramRequest;
  return std::make_tuple(&M::artifact, &M::program, &M::compressed,
                         &M::forest, &M::algo, &M::bound, &M::eval_backend,
                         &M::shape, &M::top_k);
}
constexpr auto Fields(const AppendRequest*) {
  return std::make_tuple(&AppendRequest::artifact, &AppendRequest::polys_bytes);
}

constexpr auto Fields(const TradeoffPoint*) {
  return std::make_tuple(&TradeoffPoint::size_m, &TradeoffPoint::variable_loss);
}
constexpr auto Fields(const AlgoCapability*) {
  using M = AlgoCapability;
  return std::make_tuple(&M::name, &M::summary,
                         Flags(&M::deterministic, &M::supports_tradeoff,
                               &M::exact, &M::produces_cut,
                               &M::supports_time_budget));
}
constexpr auto Fields(const EvalBackendCapability*) {
  using M = EvalBackendCapability;
  // The tier took spare bits 2-3, so pre-tier peers, which read only bits
  // 0-1, interoperate without a version bump and decode tier 0.
  return std::make_tuple(
      &M::name, &M::summary,
      Flags(&M::vectorized, &M::deterministic, Bits<2>(&M::tier)),
      &M::preferred_batch);
}
constexpr auto Fields(const ServerStats*) {
  using M = ServerStats;
  return std::make_tuple(
      &M::artifact_count, &M::result_count, &M::cached_bytes,
      &M::byte_budget, &M::result_hits, &M::result_misses, &M::evictions,
      &M::eval_batches, &M::eval_requests, &M::dedup_hits,
      &M::inflight_waiters, &M::eval_groups, &M::eval_backend_calls,
      &M::program_count, &M::program_hits, &M::program_misses,
      &M::active_connections, &M::rejected_connections, &M::idle_reaped,
      &M::loop_wakeups, &M::delta_patched, &M::delta_fallback_full);
}
constexpr auto Fields(const Response*) {
  using M = Response;
  return std::make_tuple(
      &M::request_kind, &M::code, &M::message, &M::stats, &M::generation,
      &M::poly_count, &M::monomial_count, &M::variable_count, &M::cache_hit,
      &M::dedup_hit, &M::delta_patched, &M::monomial_loss, &M::variable_loss,
      &M::adequate, &M::vvs, &M::compressed_monomials, &M::values,
      &M::points, &M::algos, &M::eval_backend, &M::backends,
      &M::scenario_count, &M::program_cache_hit, &M::scenario_indices,
      &M::objectives);
}

/// True for the kind byte of every declared message.
constexpr bool IsMessageKind(uint8_t byte) {
#define PROVABS_WIRE_IS_KIND(kind, name) byte == kind ||
  return PROVABS_WIRE_REQUESTS(PROVABS_WIRE_IS_KIND)
      byte == static_cast<uint8_t>(MessageKind::kResponse);
#undef PROVABS_WIRE_IS_KIND
}

/// The bytes an enum field may hold: the error for any other byte, or
/// nullptr.
const char* Reject(MessageKind, uint8_t byte) {
  return IsMessageKind(byte) ? nullptr : "unknown request kind in response";
}
const char* Reject(StatusCode, uint8_t byte) {
  return byte > static_cast<uint8_t>(StatusCode::kUnavailable)
             ? "unknown status code in response"
             : nullptr;
}
const char* Reject(ScenarioShape, uint8_t byte) {
  return byte > static_cast<uint8_t>(ScenarioShape::kTopK)
             ? "unknown scenario result shape"
             : nullptr;
}

// ------------------------------------------------------ generic codec ----

template <typename T>
struct IsVector : std::false_type {};
template <typename T>
struct IsVector<std::vector<T>> : std::true_type {};
template <typename T>
struct IsPair : std::false_type {};
template <typename A, typename B>
struct IsPair<std::pair<A, B>> : std::true_type {};

template <typename T>
constexpr size_t MinBytes();

template <typename M, typename F>
constexpr size_t FieldMinBytes(F M::*) {
  return MinBytes<F>();
}
template <typename... BitFields>
constexpr size_t FieldMinBytes(const FlagByte<BitFields...>&) {
  return 1;
}

/// Fewest bytes one T occupies on the wire, so a decoded element count can
/// be checked against the bytes left before anything is reserved.
template <typename T>
constexpr size_t MinBytes() {
  if constexpr (std::is_same_v<T, double>) {
    return 8;
  } else if constexpr (std::is_same_v<T, std::string> ||
                       std::is_arithmetic_v<T> || std::is_enum_v<T> ||
                       IsVector<T>::value) {
    return 1;  // A byte, a varint, or a length or count prefix.
  } else if constexpr (IsPair<T>::value) {
    return MinBytes<typename T::first_type>() +
           MinBytes<typename T::second_type>();
  } else {
    return std::apply(
        [](auto... field) { return (size_t{0} + ... + FieldMinBytes(field)); },
        Fields(static_cast<const T*>(nullptr)));
  }
}

// The derived minima are the element sizes wire v7 was written against.
static_assert(MinBytes<std::pair<std::string, std::string>>() == 2 &&
              MinBytes<std::pair<std::string, double>>() == 9 &&
              MinBytes<double>() == 8 && MinBytes<TradeoffPoint>() == 2 &&
              MinBytes<AlgoCapability>() == 3 &&
              MinBytes<EvalBackendCapability>() == 4 &&
              MinBytes<uint64_t>() == 1);

/// Same hardening as io/serializer.cc: a parsed element count must be
/// plausible for the bytes left (every element occupies at least
/// `min_bytes`), checked BEFORE reserving memory.
bool CheckCount(uint64_t count, size_t min_bytes, const ByteReader& r,
                Status& error) {
  if (count <= r.remaining() / min_bytes + 1) return true;
  error = Status::InvalidArgument("corrupt element count in message");
  return false;
}

template <typename T>
void Put(ByteWriter& w, const T& value);

template <typename M, typename F>
void PutField(ByteWriter& w, const M& message, F M::*member) {
  Put(w, message.*member);
}
template <typename M, typename... BitFields>
void PutField(ByteWriter& w, const M& message,
              const FlagByte<BitFields...>& flags) {
  unsigned byte = 0;
  unsigned shift = 0;
  std::apply(
      [&](auto... f) {
        ((byte |= (static_cast<unsigned>(message.*f.member) & f.kMask)
                  << shift,
          shift += f.kBits),
         ...);
      },
      flags.fields);
  w.PutU8(static_cast<uint8_t>(byte));
}

/// The one writer: appends `value` as its type's wire coding.
template <typename T>
void Put(ByteWriter& w, const T& value) {
  if constexpr (std::is_same_v<T, std::string>) {
    w.PutString(value);
  } else if constexpr (std::is_same_v<T, double>) {
    w.PutDouble(value);
  } else if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
    w.PutU8(static_cast<uint8_t>(value));
  } else if constexpr (std::is_integral_v<T>) {
    w.PutVarint(value);
  } else if constexpr (IsVector<T>::value) {
    w.PutVarint(value.size());
    for (const auto& element : value) Put(w, element);
  } else if constexpr (IsPair<T>::value) {
    Put(w, value.first);
    Put(w, value.second);
  } else {
    std::apply([&](auto... field) { (PutField(w, value, field), ...); },
               Fields(&value));
  }
}

// The reader returns false and leaves the Status in `error` on the first
// failure, so a well-formed message builds no Status per field.

template <typename T, typename U>
bool Assign(StatusOr<U>&& got, T& out, Status& error) {
  if (!got.ok()) {
    error = got.status();
    return false;
  }
  out = std::move(*got);
  return true;
}

template <typename T>
bool Get(ByteReader& r, T& out, Status& error);

template <typename M, typename F>
bool GetField(ByteReader& r, M& message, F M::*member, Status& error) {
  return Get(r, message.*member, error);
}
template <typename M, typename... BitFields>
bool GetField(ByteReader& r, M& message, const FlagByte<BitFields...>& flags,
              Status& error) {
  uint8_t byte = 0;
  if (!Assign(r.GetU8(), byte, error)) return false;
  unsigned shift = 0;
  std::apply(
      [&](auto... f) {
        ((message.*f.member =
              static_cast<std::decay_t<decltype(message.*f.member)>>(
                  (byte >> shift) & f.kMask),
          shift += f.kBits),
         ...);
      },
      flags.fields);
  return true;
}

/// The one reader: fills `out` from its type's wire coding.
template <typename T>
bool Get(ByteReader& r, T& out, Status& error) {
  if constexpr (std::is_same_v<T, std::string>) {
    return Assign(r.GetString(), out, error);
  } else if constexpr (std::is_same_v<T, double>) {
    return Assign(r.GetDouble(), out, error);
  } else if constexpr (std::is_same_v<T, bool>) {
    return Assign(r.GetU8(), out, error);
  } else if constexpr (std::is_enum_v<T>) {
    uint8_t byte = 0;
    if (!Assign(r.GetU8(), byte, error)) return false;
    if (const char* unknown = Reject(T{}, byte)) {
      error = Status::InvalidArgument(unknown);
      return false;
    }
    out = static_cast<T>(byte);
    return true;
  } else if constexpr (std::is_integral_v<T>) {
    return Assign(r.GetVarint(), out, error);
  } else if constexpr (IsVector<T>::value) {
    using Element = typename T::value_type;
    uint64_t count = 0;
    if (!Assign(r.GetVarint(), count, error) ||
        !CheckCount(count, MinBytes<Element>(), r, error)) {
      return false;
    }
    out.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      Element element{};
      if (!Get(r, element, error)) return false;
      out.push_back(std::move(element));
    }
    return true;
  } else if constexpr (IsPair<T>::value) {
    return Get(r, out.first, error) && Get(r, out.second, error);
  } else {
    return std::apply(
        [&](auto... field) { return (GetField(r, out, field, error) && ...); },
        Fields(&out));
  }
}

/// Reads the magic and version bytes and returns the kind byte after them.
StatusOr<uint8_t> ReadHeader(ByteReader& r) {
  for (char expected : kMagic) {
    StatusOr<uint8_t> byte = r.GetU8();
    if (!byte.ok()) return byte.status();
    if (static_cast<char>(*byte) != expected) {
      return Status::InvalidArgument("bad magic (not a provabs message)");
    }
  }
  StatusOr<uint8_t> version = r.GetU8();
  if (!version.ok()) return version.status();
  if (*version != kWireVersion) {
    return Status::InvalidArgument("unsupported protocol version");
  }
  return r.GetU8();
}

template <typename Message>
std::string EncodeMessage(MessageKind kind, const Message& message) {
  ByteWriter w;
  w.PutBytes(kMagic, 4);
  w.PutU8(kWireVersion);
  w.PutU8(static_cast<uint8_t>(kind));
  Put(w, message);
  return std::move(w).Release();
}

template <typename Message>
StatusOr<Message> DecodeMessage(MessageKind kind, std::string_view payload) {
  ByteReader r(payload);
  StatusOr<uint8_t> got = ReadHeader(r);
  if (!got.ok()) return got.status();
  if (*got != static_cast<uint8_t>(kind)) {
    return Status::InvalidArgument("payload holds a different message kind");
  }
  Message message;
  Status error;
  if (!Get(r, message, error)) return error;
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after the message");
  }
  return message;
}

}  // namespace

StatusOr<MessageKind> PeekMessageKind(std::string_view payload) {
  ByteReader r(payload);
  StatusOr<uint8_t> kind = ReadHeader(r);
  if (!kind.ok()) return kind.status();
  if (!IsMessageKind(*kind)) {
    return Status::InvalidArgument("unknown message kind");
  }
  return static_cast<MessageKind>(*kind);
}

#define PROVABS_WIRE_CODEC(kind, name)                                      \
  std::string Encode##name##Request(const name##Request& message) {         \
    return EncodeMessage(MessageKind::k##name##Request, message);            \
  }                                                                         \
  StatusOr<name##Request> Decode##name##Request(std::string_view payload) { \
    return DecodeMessage<name##Request>(MessageKind::k##name##Request,       \
                                        payload);                           \
  }
PROVABS_WIRE_REQUESTS(PROVABS_WIRE_CODEC)
#undef PROVABS_WIRE_CODEC

std::string EncodeResponse(const Response& resp) {
  return EncodeMessage(MessageKind::kResponse, resp);
}

StatusOr<Response> DecodeResponse(std::string_view payload) {
  return DecodeMessage<Response>(MessageKind::kResponse, payload);
}

// ------------------------------------------------------------ framing ----

namespace {

/// Absolute deadline for one frame operation. `timeout_ms` <= 0 = infinite.
struct FrameDeadline {
  explicit FrameDeadline(int64_t timeout_ms)
      : infinite(timeout_ms <= 0),
        at(std::chrono::steady_clock::now() +
           std::chrono::milliseconds(timeout_ms > 0 ? timeout_ms : 0)),
        budget_ms(timeout_ms) {}

  /// Blocks until `fd` is ready for `events` or the deadline passes.
  /// Returns kDeadlineExceeded on expiry, kInternal on poll failure.
  Status PollFor(int fd, short events, const char* what) const {
    for (;;) {
      int wait_ms = -1;
      if (!infinite) {
        auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
            at - std::chrono::steady_clock::now());
        if (remaining.count() <= 0) return Expired(what);
        wait_ms = static_cast<int>(std::min<int64_t>(
            remaining.count() + 1, std::numeric_limits<int>::max()));
      }
      pollfd p{};
      p.fd = fd;
      p.events = events;
      int r = ::poll(&p, 1, wait_ms);
      if (r > 0) return Status::OK();
      if (r == 0) return Expired(what);
      if (errno == EINTR) continue;
      return Status::Internal(std::string("poll failed: ") +
                              std::strerror(errno));
    }
  }

  Status Expired(const char* what) const {
    return Status::DeadlineExceeded(std::string(what) + " timed out after " +
                                    std::to_string(budget_ms) + " ms");
  }

  bool infinite;
  std::chrono::steady_clock::time_point at;
  int64_t budget_ms;
};

}  // namespace

Status WriteFrame(int fd, std::string_view payload, int64_t timeout_ms) {
  if (payload.size() > kMaxFrameBytes) {
    return Status::InvalidArgument("frame exceeds the 1 GiB protocol limit");
  }
  FrameDeadline deadline(timeout_ms);
  uint32_t len = static_cast<uint32_t>(payload.size());
  char header[4] = {static_cast<char>(len & 0xFF),
                    static_cast<char>((len >> 8) & 0xFF),
                    static_cast<char>((len >> 16) & 0xFF),
                    static_cast<char>((len >> 24) & 0xFF)};
  const char* chunks[] = {header, payload.data()};
  size_t sizes[] = {sizeof(header), payload.size()};
  for (int c = 0; c < 2; ++c) {
    size_t sent = 0;
    while (sent < sizes[c]) {
      // MSG_NOSIGNAL: a peer that disconnected mid-response must surface
      // as EPIPE here, not kill the whole server with SIGPIPE.
      ssize_t n =
          ::send(fd, chunks[c] + sent, sizes[c] - sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          // Non-blocking socket with a full buffer (a stalled peer): wait
          // for writability within the deadline instead of spinning.
          PROVABS_RETURN_IF_ERROR(
              deadline.PollFor(fd, POLLOUT, "rpc write"));
          continue;
        }
        return Status::Internal(std::string("socket write failed: ") +
                                std::strerror(errno));
      }
      sent += static_cast<size_t>(n);
    }
  }
  return Status::OK();
}

namespace {

/// Reads exactly `n` bytes into `out`; distinguishes EOF-before-anything
/// (`*clean_eof = true`) from EOF mid-read. Honors `deadline` across
/// blocking waits (poll-before-read on EAGAIN and, when a deadline is set,
/// before every read so a hung peer cannot park a blocking socket forever).
Status ReadExactly(int fd, char* out, size_t n, bool* clean_eof,
                   const FrameDeadline& deadline) {
  size_t got = 0;
  while (got < n) {
    if (!deadline.infinite) {
      PROVABS_RETURN_IF_ERROR(deadline.PollFor(fd, POLLIN, "rpc read"));
    }
    ssize_t r = ::read(fd, out + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        PROVABS_RETURN_IF_ERROR(deadline.PollFor(fd, POLLIN, "rpc read"));
        continue;
      }
      return Status::Internal(std::string("socket read failed: ") +
                              std::strerror(errno));
    }
    if (r == 0) {
      if (got == 0 && clean_eof != nullptr) {
        *clean_eof = true;
        return Status::NotFound("connection closed");
      }
      return Status::OutOfRange("connection closed mid-frame");
    }
    got += static_cast<size_t>(r);
  }
  return Status::OK();
}

}  // namespace

StatusOr<std::string> ReadFrame(int fd, int64_t timeout_ms) {
  FrameDeadline deadline(timeout_ms);
  char header[4];
  bool clean_eof = false;
  Status s = ReadExactly(fd, header, sizeof(header), &clean_eof, deadline);
  if (!s.ok()) return s;
  uint32_t len = static_cast<uint32_t>(static_cast<unsigned char>(header[0])) |
                 static_cast<uint32_t>(static_cast<unsigned char>(header[1]))
                     << 8 |
                 static_cast<uint32_t>(static_cast<unsigned char>(header[2]))
                     << 16 |
                 static_cast<uint32_t>(static_cast<unsigned char>(header[3]))
                     << 24;
  if (len > kMaxFrameBytes) {
    return Status::InvalidArgument("frame length exceeds the protocol limit");
  }
  std::string payload(len, '\0');
  if (len > 0) {
    s = ReadExactly(fd, payload.data(), len, nullptr, deadline);
    if (!s.ok()) return s;
  }
  return payload;
}

}  // namespace provabs
