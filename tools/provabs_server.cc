/// provabs_server — the long-lived serving daemon of the provenance
/// pipeline. Loads artifacts shipped by a producer, keeps them (and their
/// compressed forms) resident in a byte-budgeted LRU cache, and answers
/// load/compress/tradeoff/evaluate requests from `provabs_cli remote-*`
/// clients over a length-prefixed TCP protocol (see docs/SERVER.md).
///
/// Usage:
///   provabs_server [--host 127.0.0.1] [--port 0] [--threads N]
///       [--cache-mb MB] [--port-file PATH] [--workers N]
///       [--max-connections N] [--idle-timeout-ms MS]
///       [--drain-timeout-ms MS]
///
/// With --port 0 (the default) an ephemeral port is chosen; the bound port
/// is printed on stdout and, with --port-file, written to PATH so scripts
/// and tests can discover it race-free. The server runs until a client
/// sends `remote-shutdown` (or the process is killed).

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "io/serializer.h"
#include "server/provenance_service.h"
#include "server/server.h"

namespace provabs {
namespace {

/// Strict non-negative integer parse; false on garbage or overflow.
bool ParseSize(const std::string& text, long long max, long long* out) {
  char* end = nullptr;
  errno = 0;
  long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE || value < 0 ||
      value > max) {
    return false;
  }
  *out = value;
  return true;
}

int Usage(int code) {
  std::fprintf(stderr,
               "usage: provabs_server [--host H] [--port P] [--threads N]\n"
               "                      [--cache-mb MB] [--port-file PATH]\n"
               "                      [--workers N] [--max-connections N]\n"
               "                      [--idle-timeout-ms MS] "
               "[--drain-timeout-ms MS]\n"
               "  --host H         numeric IPv4 bind address (default "
               "127.0.0.1)\n"
               "  --port P         TCP port; 0 = ephemeral (default 0)\n"
               "  --threads N      pool threads a large evaluation is "
               "split across;\n"
               "                   small ones run on the request's worker "
               "(default: all cores)\n"
               "  --cache-mb MB    artifact/result cache budget (default "
               "256)\n"
               "  --port-file PATH write the bound port to PATH once "
               "listening\n"
               "  --workers N      request worker threads off the event "
               "loop (default: all cores)\n"
               "  --max-connections N   admission limit; later connections "
               "get a\n"
               "                   structured Unavailable error (default "
               "1024)\n"
               "  --idle-timeout-ms MS  close connections idle this long; "
               "0 = never\n"
               "                   (default 300000)\n"
               "  --drain-timeout-ms MS force-close stragglers this long "
               "after\n"
               "                   shutdown begins (default 5000)\n");
  return code;
}

int Run(int argc, char** argv) {
  ServiceOptions service_options;
  ServerOptions server_options;
  std::string port_file;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") return Usage(0);
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      std::fprintf(stderr, "unknown or valueless flag '%s'\n", flag.c_str());
      return Usage(2);
    }
    std::string value = argv[++i];
    if (flag == "--host") {
      server_options.host = value;
    } else if (flag == "--port") {
      long long port = 0;
      if (!ParseSize(value, 65535, &port)) {
        std::fprintf(stderr, "bad --port '%s' (want 0-65535)\n",
                     value.c_str());
        return Usage(2);
      }
      server_options.port = static_cast<uint16_t>(port);
    } else if (flag == "--threads") {
      long long threads = 0;
      if (!ParseSize(value, 1 << 16, &threads)) {
        std::fprintf(stderr, "bad --threads '%s'\n", value.c_str());
        return Usage(2);
      }
      service_options.eval_threads = static_cast<size_t>(threads);
    } else if (flag == "--cache-mb") {
      long long mb = 0;
      if (!ParseSize(value, 1 << 24, &mb)) {
        std::fprintf(stderr, "bad --cache-mb '%s'\n", value.c_str());
        return Usage(2);
      }
      service_options.cache_bytes = static_cast<size_t>(mb) << 20;
    } else if (flag == "--port-file") {
      port_file = value;
    } else if (flag == "--workers") {
      long long workers = 0;
      if (!ParseSize(value, 1 << 16, &workers)) {
        std::fprintf(stderr, "bad --workers '%s'\n", value.c_str());
        return Usage(2);
      }
      server_options.worker_threads = static_cast<size_t>(workers);
    } else if (flag == "--max-connections") {
      long long max_conns = 0;
      if (!ParseSize(value, 1 << 24, &max_conns) || max_conns == 0) {
        std::fprintf(stderr, "bad --max-connections '%s'\n", value.c_str());
        return Usage(2);
      }
      server_options.max_connections = static_cast<size_t>(max_conns);
    } else if (flag == "--idle-timeout-ms") {
      long long idle_ms = 0;
      if (!ParseSize(value, 1LL << 40, &idle_ms)) {
        std::fprintf(stderr, "bad --idle-timeout-ms '%s'\n", value.c_str());
        return Usage(2);
      }
      server_options.idle_timeout_ms = static_cast<uint64_t>(idle_ms);
    } else if (flag == "--drain-timeout-ms") {
      long long drain_ms = 0;
      if (!ParseSize(value, 1LL << 40, &drain_ms)) {
        std::fprintf(stderr, "bad --drain-timeout-ms '%s'\n", value.c_str());
        return Usage(2);
      }
      server_options.drain_timeout_ms = static_cast<uint64_t>(drain_ms);
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", flag.c_str());
      return Usage(2);
    }
  }

  ProvenanceService service(service_options);
  Server server(service, server_options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("provabs_server listening on %s:%u (cache %zu MiB)\n",
              server_options.host.c_str(), server.port(),
              service_options.cache_bytes >> 20);
  std::fflush(stdout);
  if (!port_file.empty()) {
    // Written via a temp file + rename so a polling reader never observes a
    // partially written port number.
    std::string tmp = port_file + ".tmp";
    Status w = WriteFile(tmp, std::to_string(server.port()) + "\n");
    if (w.ok() && std::rename(tmp.c_str(), port_file.c_str()) != 0) {
      w = Status::Internal("rename failed: " + std::string(strerror(errno)));
    }
    if (!w.ok()) {
      std::fprintf(stderr, "error writing port file: %s\n",
                   w.ToString().c_str());
      return 1;
    }
  }

  server.Wait();
  std::printf("provabs_server shut down cleanly\n");
  return 0;
}

}  // namespace
}  // namespace provabs

int main(int argc, char** argv) { return provabs::Run(argc, argv); }
