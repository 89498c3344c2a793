/// provabs_cli — command-line front end for the provenance-abstraction
/// pipeline, mirroring the paper's deployment story: a producer generates
/// provenance once (`generate`), compresses it under a bound (`compress`),
/// and ships compact binary artifacts to analysts, who inspect (`info`,
/// `tradeoff`) and run what-if scenarios (`evaluate`, `scenario`) locally —
/// or, with the `remote-*` subcommands, against a long-lived
/// `provabs_server` that keeps artifacts and compressed results resident
/// (see docs/SERVER.md).
///
/// Each verb is one function, for both spellings where it has two. It
/// parses and validates every flag before any file or network I/O, and
/// prints its result once. The analyst verbs send the same wire requests either way,
/// through a Session. `compress` and `append` run on the algorithm layer
/// offline: they write files, take --budget-ms and name a declined patch
/// gate, and the wire carries none of these.

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "algo/compressor.h"
#include "algo/optimal_single_tree.h"
#include "common/timer.h"
#include "core/evaluation_backend.h"
#include "io/serializer.h"
#include "scenario/parser.h"
#include "scenario/program.h"
#include "server/client.h"
#include "server/provenance_service.h"
#include "workload/telephony.h"
#include "workload/tpch.h"
#include "workload/tree_gen.h"

namespace provabs {
namespace {

const char kUsage[] =
    "usage: provabs_cli <command> [flags]\n"
    "\n"
    "offline pipeline:\n"
    "  generate --workload telephony|tpch-q1|tpch-q5|tpch-q10\n"
    "      [--scale S] [--fanouts 8 | 4,4 | 2,2,8] --out P.bin\n"
    "      [--forest-out F.bin]\n"
    "  info --in P.bin\n"
    "  compress --in P.bin --forest F.bin --bound N\n"
    "      [--algo NAME] [--budget-ms MS] [--vvs-out V.bin] [--out C.bin]\n"
    "  append --in P.bin --add EXTRA.bin [--out MERGED.bin]\n"
    "      [--forest F.bin --bound N]   (with a forest and bound, the\n"
    "       compression is re-derived incrementally from the pre-append\n"
    "       DP state, falling back to the full DP only when it must)\n"
    "  tradeoff --in P.bin --forest F.bin\n"
    "  evaluate --in P.bin [--set var=value]... [--eval-backend NAME]\n"
    "  scenario --in P.bin (--expr TEXT | --expr-file F.scn)\n"
    "      [--shape values|argmin|argmax|topk [--top-k K]]\n"
    "      [--eval-backend NAME]\n"
    "\n"
    "serving (against a running provabs_server):\n"
    "  remote-load --port P --name A --in P.bin [--forest F.bin]\n"
    "      [--forest-name N] [--host H]\n"
    "  remote-append --port P --name A --in EXTRA.bin [--host H]\n"
    "  remote-info --port P [--name A] [--host H]\n"
    "  remote-compress --port P --name A --bound N\n"
    "      [--algo NAME] [--forest-name N] [--host H]\n"
    "  remote-evaluate --port P --name A [--set var=value]...\n"
    "      [--eval-backend NAME]\n"
    "      [--bound N [--algo NAME] [--forest-name N]] [--host H]\n"
    "  remote-scenario --port P --name A (--expr TEXT | --expr-file F.scn)\n"
    "      [--shape values|argmin|argmax|topk [--top-k K]]\n"
    "      [--eval-backend NAME]\n"
    "      [--bound N [--algo NAME] [--forest-name N]] [--host H]\n"
    "  remote-tradeoff --port P --name A [--forest-name N] [--host H]\n"
    "  remote-shutdown --port P [--host H]\n"
    "  (every remote-* accepts --timeout-ms MS: bound the connect and "
    "each RPC,\n"
    "   failing with DeadlineExceeded instead of hanging)\n"
    "\n"
    "run 'provabs_cli <command> --help' for the command's flags.\n";

/// One line of an algorithm listing: name, summary, capability suffixes.
/// Shared by --help (local registry) and remote-info (the server's
/// ListAlgos records) so the two renderings cannot drift.
void PrintAlgoLine(std::FILE* out, const std::string& name,
                   const std::string& summary, bool deterministic,
                   bool supports_tradeoff, bool exact, bool produces_cut,
                   bool supports_time_budget) {
  std::string caps;
  if (exact) caps += ", exact";
  if (supports_tradeoff) caps += ", tradeoff";
  if (!produces_cut) caps += ", grouping";
  if (!deterministic) caps += ", randomized";
  // Only the absence is worth a caller's attention: --budget-ms against
  // such an algorithm would be silently ignored.
  if (!supports_time_budget) caps += ", no-time-budget";
  std::fprintf(out, "  %-8s %s%s\n", name.c_str(), summary.c_str(),
               caps.c_str());
}

/// One line of an evaluation-backend listing: name, summary, capability
/// suffixes. Shared by --help (local registry) and remote-info (the
/// server's ListBackends records) so the two renderings cannot drift.
void PrintBackendLine(std::FILE* out, const std::string& name,
                      const std::string& summary, bool vectorized,
                      bool deterministic, uint64_t preferred_batch) {
  std::string caps;
  if (vectorized) caps += ", simd";
  if (!deterministic) caps += ", nondeterministic";
  if (preferred_batch > 1) {
    caps += ", batch>=" + std::to_string(preferred_batch);
  }
  std::fprintf(out, "  %-10s %s%s\n", name.c_str(), summary.c_str(),
               caps.c_str());
}

/// Usage text plus the live registries, so --help never drifts from what
/// --algo / --eval-backend actually accept.
void PrintUsage(std::FILE* out) {
  std::fputs(kUsage, out);
  std::fprintf(out, "registered algorithms (--algo):\n");
  for (const CompressorInfo& info : CompressorRegistry::Default().Infos()) {
    PrintAlgoLine(out, info.name, info.summary, info.deterministic,
                  info.supports_tradeoff, info.exact, info.produces_cut,
                  info.supports_time_budget);
  }
  std::fprintf(out, "registered evaluation backends (--eval-backend):\n");
  for (const EvaluationBackendInfo& info :
       EvaluationBackendRegistry::Default().Infos()) {
    PrintBackendLine(out, info.name, info.summary, info.vectorized,
                     info.deterministic, info.preferred_batch);
  }
}

/// Minimal strict flag parser: --name value pairs plus repeated --set
/// entries. Flags outside `allowed` (and bare non-flag words) are usage
/// errors — a typo must never be silently ignored.
struct Args {
  const char* cmd = "";  ///< The command as typed, for diagnostics.
  bool remote = false;   ///< A remote-* command.
  std::map<std::string, std::string> flags;
  std::vector<std::string> sets;
  bool help = false;

  const char* Get(const std::string& name,
                  const char* fallback = nullptr) const {
    auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second.c_str();
  }
};

bool ParseArgs(int argc, char** argv, int start,
               std::initializer_list<const char*> allowed, Args* out) {
  for (int i = start; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      out->help = true;
      return true;
    }
    if (flag.rfind("--", 0) != 0) {
      std::fprintf(stderr, "%s: unexpected argument '%s'\n", out->cmd,
                   flag.c_str());
      return false;
    }
    std::string name = flag.substr(2);
    bool known = false;
    for (const char* a : allowed) {
      if (name == a) {
        known = true;
        break;
      }
    }
    if (!known) {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", out->cmd,
                   flag.c_str());
      return false;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: flag '%s' needs a value\n", out->cmd,
                   flag.c_str());
      return false;
    }
    std::string value = argv[++i];
    if (name == "set") {
      out->sets.push_back(value);
    } else {
      out->flags[name] = value;
    }
  }
  return true;
}

/// Strict numeric parses: garbage, trailing junk, or a sign on an unsigned
/// flag is a usage error — the same "a typo must fail loudly" contract the
/// flag names follow (atoi/atof would silently truncate "15oo" to 15).
bool ParseUint64(const char* text, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE ||
      std::strchr(text, '-') != nullptr) {
    return false;
  }
  *out = value;
  return true;
}

bool ParseDouble(const char* text, double* out) {
  char* end = nullptr;
  double value = std::strtod(text, &end);
  if (end == text || *end != '\0') return false;
  *out = value;
  return true;
}

bool ParseFanouts(const std::string& spec, std::vector<uint32_t>* fanouts) {
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    uint64_t value = 0;
    if (!ParseUint64(spec.substr(pos, comma - pos).c_str(), &value) ||
        value < 1 || value > (1u << 20)) {
      return false;
    }
    fanouts->push_back(static_cast<uint32_t>(value));
    pos = comma + 1;
  }
  return !fanouts->empty();
}

// ------------------------------------------------ shared flag parsers --
//
// Each prints its usage error and returns false; a verb returns 2 then.

bool ParseBound(const Args& args, uint64_t* bound) {
  const char* text = args.Get("bound");
  if (ParseUint64(text, bound)) return true;
  std::fprintf(stderr, "%s: bad --bound '%s' (want a non-negative integer)\n",
               args.cmd, text);
  return false;
}

/// --algo against the local registry: a name outside it is a usage error
/// that lists what is registered.
bool ParseAlgo(const Args& args, std::string* algo) {
  *algo = args.Get("algo", "opt");
  if (CompressorRegistry::Default().Find(*algo) != nullptr) return true;
  std::fprintf(stderr, "%s: unknown algorithm '%s' (registered: %s)\n",
               args.cmd, algo->c_str(),
               CompressorRegistry::Default().NamesCsv().c_str());
  return false;
}

/// --eval-backend, same contract as ParseAlgo. Absent (empty) is valid:
/// the registry's auto policy routes.
bool ParseEvalBackend(const Args& args, std::string* backend) {
  *backend = args.Get("eval-backend", "");
  if (backend->empty() ||
      EvaluationBackendRegistry::Default().Find(*backend) != nullptr) {
    return true;
  }
  std::fprintf(stderr,
               "%s: unknown evaluation backend '%s' (registered: %s)\n",
               args.cmd, backend->c_str(),
               EvaluationBackendRegistry::Default().NamesCsv().c_str());
  return false;
}

bool ParseAssignments(const Args& args,
                      std::vector<std::pair<std::string, double>>* out) {
  for (const std::string& assignment : args.sets) {
    const size_t eq = assignment.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "bad --set '%s' (want var=value)\n",
                   assignment.c_str());
      return false;
    }
    double value = 0;
    if (!ParseDouble(assignment.substr(eq + 1).c_str(), &value)) {
      std::fprintf(stderr, "bad --set '%s' (value is not a number)\n",
                   assignment.c_str());
      return false;
    }
    out->emplace_back(assignment.substr(0, eq), value);
  }
  return true;
}

/// --bound [--algo] [--forest-name] of remote-evaluate and remote-scenario:
/// the request reads the compressed view instead of the artifact.
template <typename Request>
bool ParseView(const Args& args, Request* req) {
  if (args.Get("bound") == nullptr) {
    if (args.Get("algo") == nullptr && args.Get("forest-name") == nullptr) {
      return true;
    }
    // Without --bound these flags would be silently dropped; refuse.
    std::fprintf(stderr, "%s: --algo/--forest-name require --bound\n",
                 args.cmd);
    return false;
  }
  req->compressed = true;
  req->forest = args.Get("forest-name", "default");
  return ParseBound(args, &req->bound) && ParseAlgo(args, &req->algo);
}

/// Parses --shape / --top-k. Default shape is values; --top-k is only
/// meaningful (and then mandatory, >= 1) with --shape topk.
bool ParseShape(const Args& args, ScenarioShape* shape, uint64_t* top_k) {
  const std::string name = args.Get("shape", "values");
  if (name == "values") {
    *shape = ScenarioShape::kValues;
  } else if (name == "argmin") {
    *shape = ScenarioShape::kArgmin;
  } else if (name == "argmax") {
    *shape = ScenarioShape::kArgmax;
  } else if (name == "topk") {
    *shape = ScenarioShape::kTopK;
  } else {
    std::fprintf(stderr,
                 "%s: bad --shape '%s' (want values|argmin|argmax|topk)\n",
                 args.cmd, name.c_str());
    return false;
  }
  const char* k = args.Get("top-k");
  if (*shape != ScenarioShape::kTopK) {
    if (k == nullptr) return true;
    std::fprintf(stderr, "%s: --top-k requires --shape topk\n", args.cmd);
    return false;
  }
  if (k != nullptr && ParseUint64(k, top_k) && *top_k != 0) return true;
  std::fprintf(stderr,
               "%s: --shape topk needs --top-k K (a positive integer)\n",
               args.cmd);
  return false;
}

/// Prints a parse or compile failure with the caret diagnostic the offset
/// points at, matching compiler convention; callers exit 2 (usage error:
/// the program text is an argument, and it is malformed).
void PrintScenarioError(const char* cmd, const Status& status,
                        std::string_view source, size_t offset) {
  std::fprintf(stderr, "%s: %s\n%s\n", cmd, status.message().c_str(),
               scenario::CaretDiagnostic(source, offset).c_str());
}

// ------------------------------------------------------------- I/O ------

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Reads a file and decodes it into `vars` (DeserializePolynomialSet or
/// DeserializeForest).
template <typename T>
StatusOr<T> ReadDecoded(const char* path, VariableTable& vars,
                        StatusOr<T> (*decode)(std::string_view,
                                              VariableTable&)) {
  StatusOr<std::string> data = ReadFileToString(path);
  if (!data.ok()) return data.status();
  return decode(*data, vars);
}

/// The request that loads the --in and --forest files (either may be
/// absent), the forest under `forest_name`. Returns 0, or 1 after
/// printing the error.
int ReadLoadRequest(const char* in, const char* forest,
                    const std::string& forest_name, LoadRequest* req) {
  if (in != nullptr) {
    StatusOr<std::string> data = ReadFileToString(in);
    if (!data.ok()) return Fail(data.status());
    req->polys_bytes = std::move(*data);
  }
  if (forest != nullptr) {
    StatusOr<std::string> data = ReadFileToString(forest);
    if (!data.ok()) return Fail(data.status());
    req->forests.emplace_back(forest_name, std::move(*data));
  }
  return 0;
}

/// Where a verb's wire requests go. Offline, an in-process
/// ProvenanceService with default ServiceOptions holds the verb's --in
/// (and --forest) files as one artifact, named after the --in path.
/// Remote, a Client carries the requests to --host:--port, and the
/// artifact is --name. The two expose the same handlers, so a verb makes
/// each request once:
///
///   session.Call([&](auto& s) { return s.Info(req); }, &resp)
///
/// Parse checks the flags without I/O; Open does the I/O.
class Session {
 public:
  /// Offline, records the files; remote, validates --port and
  /// --timeout-ms. False after a usage error.
  bool Parse(const Args& args) {
    remote_ = args.remote;
    if (!remote_) {
      in_ = args.Get("in");
      forest_ = args.Get("forest");
      artifact_ = in_ != nullptr ? in_ : "";
      return true;
    }
    artifact_ = args.Get("name", "");
    host_ = args.Get("host", "127.0.0.1");
    const char* port = args.Get("port");
    uint64_t value = 0;
    if (!ParseUint64(port, &value) || value < 1 || value > 65535) {
      std::fprintf(stderr, "%s: bad --port '%s' (want 1-65535)\n", args.cmd,
                   port);
      return false;
    }
    port_ = static_cast<uint16_t>(value);
    // --timeout-ms bounds both the connect and every RPC on the
    // connection; expiry surfaces as DeadlineExceeded, not a hang.
    if (const char* timeout = args.Get("timeout-ms")) {
      if (!ParseUint64(timeout, &value) || value < 1 ||
          value > uint64_t{1} << 40) {
        std::fprintf(stderr,
                     "%s: bad --timeout-ms '%s' (want a positive millisecond "
                     "count)\n",
                     args.cmd, timeout);
        return false;
      }
      options_.connect_timeout_ms = static_cast<int64_t>(value);
      options_.rpc_timeout_ms = static_cast<int64_t>(value);
    }
    return true;
  }

  /// Connects, or loads the files into a fresh service. Returns 0, or 1
  /// after printing the error.
  int Open() {
    if (remote_) {
      StatusOr<Client> client = Client::Connect(host_, port_, options_);
      if (!client.ok()) return Fail(client.status());
      client_.emplace(std::move(*client));
      return 0;
    }
    LoadRequest load;
    load.artifact = artifact_;
    if (int rc = ReadLoadRequest(in_, forest_, "default", &load)) return rc;
    local_bytes_ = load.polys_bytes.size();
    service_ = std::make_unique<ProvenanceService>();
    Response resp;
    if (int rc = Call([&](auto& s) { return s.Load(load); }, &resp)) {
      return rc;
    }
    local_ = service_->store().Get(artifact_);
    return 0;
  }

  template <typename Handler>
  int Call(Handler handler, Response* resp) {
    return Receive(client_ ? handler(*client_)
                           : StatusOr<Response>(handler(*service_)),
                   resp);
  }

  /// Prints a failed call, transport or application; returns the exit
  /// code, with `*resp` filled when it is 0.
  int Receive(StatusOr<Response> sent, Response* resp) const {
    if (!sent.ok()) return Fail(sent.status());
    *resp = std::move(*sent);
    if (resp->ok()) return 0;
    std::fprintf(stderr, "%s: %s\n", remote_ ? "server error" : "error",
                 resp->ToStatus().ToString().c_str());
    return 1;
  }

  Client& client() { return *client_; }
  const std::string& artifact() const { return artifact_; }
  /// Offline only (nullptr remote): the loaded artifact and its file's
  /// size, for the checks and lines only the files in hand can give.
  const Artifact* local() const { return local_.get(); }
  size_t local_bytes() const { return local_bytes_; }

 private:
  bool remote_ = false;
  const char* in_ = nullptr;
  const char* forest_ = nullptr;
  std::string host_;
  uint16_t port_ = 0;
  ClientOptions options_;
  std::string artifact_;
  std::unique_ptr<ProvenanceService> service_;
  std::optional<Client> client_;
  std::shared_ptr<const Artifact> local_;
  size_t local_bytes_ = 0;
};

// ------------------------------------------------------------ printers --

void PrintShape(const std::string& lead, uint64_t polys, uint64_t monomials,
                uint64_t variables) {
  std::printf("%s %llu polynomials, %llu monomials, %llu variables\n",
              lead.c_str(), static_cast<unsigned long long>(polys),
              static_cast<unsigned long long>(monomials),
              static_cast<unsigned long long>(variables));
}

void PrintCompression(const std::string& label, uint64_t monomial_loss,
                      uint64_t variable_loss, bool adequate,
                      bool budget_exhausted, double seconds,
                      const std::string& vvs) {
  // An exhausted budget is not an error for the anytime algorithms: the
  // cut is valid and its loss exact, only optimality was traded — but the
  // caller must be able to see the trade happened.
  std::printf("%s: ML=%llu VL=%llu%s%s in %.3fs\n", label.c_str(),
              static_cast<unsigned long long>(monomial_loss),
              static_cast<unsigned long long>(variable_loss),
              budget_exhausted ? " (budget exhausted: best-so-far)" : "",
              adequate ? "" : " (bound not reached)", seconds);
  std::printf("VVS: %s\n", vvs.c_str());
}

void PrintValueRow(const double* values, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    std::printf(i == 0 ? "%.6f" : " %.6f", values[i]);
  }
  std::printf("\n");
}

/// The tail of an evaluation's timing line: the backend that ran and, over
/// a compressed view, how the result cache answered.
std::string RouteNote(bool compressed, const Response& resp) {
  std::string note;
  if (!resp.eval_backend.empty()) note += ", backend: " + resp.eval_backend;
  if (compressed) {
    note += resp.cache_hit   ? ", compressed, cache: hit"
            : resp.dedup_hit ? ", compressed, cache: dedup"
                             : ", compressed, cache: miss";
  }
  return note;
}

void PrintServerStats(const ServerStats& stats) {
  std::printf("server: %llu artifacts, %llu cached results, %llu bytes "
              "cached (budget %llu)\n",
              static_cast<unsigned long long>(stats.artifact_count),
              static_cast<unsigned long long>(stats.result_count),
              static_cast<unsigned long long>(stats.cached_bytes),
              static_cast<unsigned long long>(stats.byte_budget));
  std::printf("cache: %llu hits, %llu misses, %llu evictions\n",
              static_cast<unsigned long long>(stats.result_hits),
              static_cast<unsigned long long>(stats.result_misses),
              static_cast<unsigned long long>(stats.evictions));
  std::printf("single-flight: %llu dedup hits, %llu waiters in flight\n",
              static_cast<unsigned long long>(stats.dedup_hits),
              static_cast<unsigned long long>(stats.inflight_waiters));
  std::printf("evaluation: %llu calls (%llu backend calls) for %llu "
              "scenarios\n",
              static_cast<unsigned long long>(stats.eval_batches),
              static_cast<unsigned long long>(stats.eval_backend_calls),
              static_cast<unsigned long long>(stats.eval_requests));
  std::printf("programs: %llu cached, %llu hits, %llu misses\n",
              static_cast<unsigned long long>(stats.program_count),
              static_cast<unsigned long long>(stats.program_hits),
              static_cast<unsigned long long>(stats.program_misses));
  std::printf("connections: %llu active, %llu rejected, %llu idle-reaped "
              "(%llu loop wakeups)\n",
              static_cast<unsigned long long>(stats.active_connections),
              static_cast<unsigned long long>(stats.rejected_connections),
              static_cast<unsigned long long>(stats.idle_reaped),
              static_cast<unsigned long long>(stats.loop_wakeups));
  std::printf("incremental: %llu compressions delta-patched, %llu fell "
              "back to the full algorithm\n",
              static_cast<unsigned long long>(stats.delta_patched),
              static_cast<unsigned long long>(stats.delta_fallback_full));
}

// ---------------------------------------------------------------- verbs --

int CmdGenerate(const Args& args) {
  const char* workload = args.Get("workload");
  const char* out = args.Get("out");
  double scale = 0;
  if (!ParseDouble(args.Get("scale", "0.2"), &scale) || scale <= 0) {
    std::fprintf(stderr, "generate: bad --scale '%s' (want a number > 0)\n",
                 args.Get("scale", "0.2"));
    return 2;
  }
  std::vector<uint32_t> fanouts;
  if (!ParseFanouts(args.Get("fanouts", "8"), &fanouts)) {
    std::fprintf(stderr,
                 "generate: bad --fanouts '%s' (want e.g. 8 or 4,4)\n",
                 args.Get("fanouts", "8"));
    return 2;
  }

  VariableTable vars;
  PolynomialSet polys;
  std::vector<VariableId> tree_leaves;
  std::string name = workload;
  if (name == "telephony") {
    TelephonyConfig config;
    config.num_customers = static_cast<size_t>(10000 * scale);
    Rng rng(config.seed);
    TelephonyVars tv = MakeTelephonyVars(vars, config);
    polys = RunTelephonyQuery(GenerateTelephony(config, rng), tv);
    tree_leaves = tv.plan_vars;
  } else if (name.rfind("tpch-", 0) == 0) {
    TpchQuery q;
    if (name == "tpch-q1") {
      q = TpchQuery::kQ1;
    } else if (name == "tpch-q5") {
      q = TpchQuery::kQ5;
    } else if (name == "tpch-q10") {
      q = TpchQuery::kQ10;
    } else {
      std::fprintf(stderr, "unknown TPC-H workload %s\n", workload);
      return 2;
    }
    TpchConfig config;
    config.scale_factor = scale;
    Rng rng(config.seed);
    Database db = GenerateTpch(config, rng);
    TpchVars tv = MakeTpchVars(vars, 128);
    polys = RunTpchQuery(q, db, tv);
    tree_leaves = tv.supplier_vars;
  } else {
    std::fprintf(stderr, "unknown workload %s\n", workload);
    return 2;
  }

  Status write = WriteFile(out, SerializePolynomialSet(polys, vars));
  if (!write.ok()) return Fail(write);
  PrintShape(std::string("wrote ") + out + ":", polys.count(), polys.SizeM(),
             polys.SizeV());

  if (const char* forest_out = args.Get("forest-out")) {
    AbstractionForest forest;
    forest.AddTree(BuildUniformTree(vars, tree_leaves, fanouts, "T_"));
    Status fw = WriteFile(forest_out, SerializeForest(forest, vars));
    if (!fw.ok()) return Fail(fw);
    std::printf("wrote %s: 1 tree, %zu nodes\n", forest_out,
                forest.TotalNodes());
  }
  return 0;
}

/// info and remote-info. Offline adds what only the file can tell (its
/// byte count, the per-polynomial line); remote adds the server's
/// counters and registries.
int CmdInfo(const Args& args) {
  Session session;
  if (!session.Parse(args)) return 2;
  if (int rc = session.Open()) return rc;
  InfoRequest req;
  req.artifact = session.artifact();
  Response resp;
  if (int rc = session.Call([&](auto& s) { return s.Info(req); }, &resp)) {
    return rc;
  }
  const Artifact* local = session.local();
  if (local != nullptr) {
    std::printf("%s: %zu bytes\n", req.artifact.c_str(),
                session.local_bytes());
  } else if (!req.artifact.empty()) {
    std::printf("artifact '%s' (generation %llu):\n", req.artifact.c_str(),
                static_cast<unsigned long long>(resp.generation));
  }
  if (!req.artifact.empty()) {
    std::printf("  polynomials : %llu\n",
                static_cast<unsigned long long>(resp.poly_count));
    std::printf("  monomials   : %llu (|P|_M)\n",
                static_cast<unsigned long long>(resp.monomial_count));
    std::printf("  variables   : %llu (|P|_V)\n",
                static_cast<unsigned long long>(resp.variable_count));
  }
  if (local != nullptr) {
    const std::vector<Polynomial>& polys = local->polys.polynomials();
    if (polys.empty()) return 0;
    auto [min_it, max_it] = std::minmax_element(
        polys.begin(), polys.end(), [](const Polynomial& a,
                                       const Polynomial& b) {
          return a.SizeM() < b.SizeM();
        });
    std::printf("  per polynomial: min %zu, max %zu, avg %.2f monomials\n",
                min_it->SizeM(), max_it->SizeM(),
                static_cast<double>(resp.monomial_count) /
                    static_cast<double>(polys.size()));
    return 0;
  }
  PrintServerStats(resp.stats);
  // The server's registries, so analysts discover what --algo and
  // --eval-backend accept without consulting the server's build.
  Response algos;
  if (int rc = session.Call(
          [](auto& s) { return s.ListAlgos(ListAlgosRequest{}); }, &algos)) {
    return rc;
  }
  std::printf("algorithms:\n");
  for (const AlgoCapability& a : algos.algos) {
    PrintAlgoLine(stdout, a.name, a.summary, a.deterministic,
                  a.supports_tradeoff, a.exact, a.produces_cut,
                  a.supports_time_budget);
  }
  Response backends;
  if (int rc = session.Call(
          [](auto& s) { return s.ListBackends(ListBackendsRequest{}); },
          &backends)) {
    return rc;
  }
  std::printf("evaluation backends:\n");
  for (const EvalBackendCapability& b : backends.backends) {
    PrintBackendLine(stdout, b.name, b.summary, b.vectorized,
                     b.deterministic, b.preferred_batch);
  }
  return 0;
}

/// tradeoff and remote-tradeoff.
int CmdTradeoff(const Args& args) {
  Session session;
  if (!session.Parse(args)) return 2;
  if (int rc = session.Open()) return rc;
  TradeoffRequest req;
  req.artifact = session.artifact();
  req.forest = args.Get("forest-name", "default");
  Response resp;
  if (int rc =
          session.Call([&](auto& s) { return s.Tradeoff(req); }, &resp)) {
    return rc;
  }
  std::printf("%12s %14s\n", "size |P'|_M", "variable loss");
  for (const TradeoffPoint& p : resp.points) {
    std::printf("%12zu %14zu\n", p.size_m, p.variable_loss);
  }
  return 0;
}

/// evaluate and remote-evaluate.
int CmdEvaluate(const Args& args) {
  Session session;
  EvaluateRequest req;
  if (!session.Parse(args) || !ParseEvalBackend(args, &req.eval_backend) ||
      !ParseAssignments(args, &req.assignments) || !ParseView(args, &req)) {
    return 2;
  }
  if (int rc = session.Open()) return rc;
  req.artifact = session.artifact();
  if (const Artifact* local = session.local()) {
    // The service refuses these names too; with the file in hand they are
    // usage errors.
    for (const auto& assignment : req.assignments) {
      if (local->vars->Find(assignment.first) == kInvalidVariable) {
        std::fprintf(stderr, "unknown variable '%s'\n",
                     assignment.first.c_str());
        return 2;
      }
    }
  }
  Timer timer;
  Response resp;
  if (int rc =
          session.Call([&](auto& s) { return s.Evaluate(req); }, &resp)) {
    return rc;
  }
  const double elapsed = timer.ElapsedSeconds();
  for (size_t i = 0; i < resp.values.size(); ++i) {
    std::printf("polynomial %zu: %.6f\n", i, resp.values[i]);
  }
  std::printf("(%zu polynomials in %.4fs%s)\n", resp.values.size(), elapsed,
              RouteNote(req.compressed, resp).c_str());
  return 0;
}

/// scenario and remote-scenario. Syntax is checked before any I/O, for
/// the caret-diagnostic contract. Offline also compiles the program
/// against the file, so semantic errors exit 2 with their caret too, and
/// shaped output names the parameters behind each pick; remote, only the
/// server holds the artifact's variables.
int CmdScenario(const Args& args) {
  Session session;
  EvaluateScenarioProgramRequest req;
  if (!session.Parse(args) || !ParseEvalBackend(args, &req.eval_backend) ||
      !ParseShape(args, &req.shape, &req.top_k) || !ParseView(args, &req)) {
    return 2;
  }
  const char* expr = args.Get("expr");
  const char* expr_file = args.Get("expr-file");
  if ((expr == nullptr) == (expr_file == nullptr)) {
    std::fprintf(stderr, "%s requires exactly one of --expr / --expr-file\n",
                 args.cmd);
    return 2;
  }
  if (expr != nullptr) {
    req.program = expr;
  } else {
    StatusOr<std::string> source = ReadFileToString(expr_file);
    if (!source.ok()) return Fail(source.status());
    req.program = std::move(*source);
  }
  size_t error_offset = 0;
  auto ast = scenario::Parse(req.program, &error_offset);
  if (!ast.ok()) {
    PrintScenarioError(args.cmd, ast.status(), req.program, error_offset);
    return 2;
  }
  if (int rc = session.Open()) return rc;
  req.artifact = session.artifact();
  std::optional<scenario::ScenarioProgram> program;
  if (const Artifact* local = session.local()) {
    auto compiled = scenario::ScenarioProgram::Compile(
        req.program, local->polys.Compiled(), *local->vars, &error_offset);
    if (!compiled.ok()) {
      PrintScenarioError(args.cmd, compiled.status(), req.program,
                         error_offset);
      return 2;
    }
    program = std::move(*compiled);
  }

  Timer timer;
  Response resp;
  if (int rc = session.Call(
          [&](auto& s) { return s.EvaluateScenarioProgram(req); }, &resp)) {
    return rc;
  }
  const double elapsed = timer.ElapsedSeconds();
  const bool shaped = req.shape != ScenarioShape::kValues;
  const size_t rows = shaped ? resp.scenario_indices.size()
                             : static_cast<size_t>(resp.scenario_count);
  const size_t poly_count = rows == 0 ? 0 : resp.values.size() / rows;
  for (size_t i = 0; i < rows; ++i) {
    const double* values = resp.values.data() + i * poly_count;
    if (!shaped) {
      std::printf("scenario %zu: ", i);
      PrintValueRow(values, poly_count);
      continue;
    }
    const uint64_t index = resp.scenario_indices[i];
    std::printf("scenario %llu: objective %.6f\n",
                static_cast<unsigned long long>(index), resp.objectives[i]);
    if (program.has_value()) {
      // The parameter assignments that produced this scenario — the
      // answer an analyst actually wants from argmin/argmax.
      const std::vector<double> params = program->ParamValues(index);
      for (size_t p = 0; p < params.size(); ++p) {
        std::printf("  %s = %.6f\n", program->param_names()[p].c_str(),
                    params[p]);
      }
    }
    std::printf("  values: ");
    PrintValueRow(values, poly_count);
  }
  std::printf("(%llu scenarios x %zu polynomials in %.4fs, program cache: "
              "%s%s)\n",
              static_cast<unsigned long long>(resp.scenario_count),
              poly_count, elapsed, resp.program_cache_hit ? "hit" : "miss",
              RouteNote(req.compressed, resp).c_str());
  return 0;
}

/// compress and remote-compress. Offline runs the algorithm here, writes
/// --vvs-out/--out and honours --budget-ms; remote asks the server, which
/// also says how its cache answered.
int CmdCompress(const Args& args) {
  Session session;
  CompressRequest req;
  if (!session.Parse(args) || !ParseBound(args, &req.bound) ||
      !ParseAlgo(args, &req.algo)) {
    return 2;
  }
  CompressOptions options;
  options.bound = req.bound;
  if (const char* budget = args.Get("budget-ms")) {
    if (!ParseUint64(budget, &options.time_budget_ms) ||
        options.time_budget_ms == 0) {
      std::fprintf(stderr,
                   "%s: bad --budget-ms '%s' (want a positive integer)\n",
                   args.cmd, budget);
      return 2;
    }
  }
  const Compressor* compressor = CompressorRegistry::Default().Find(req.algo);
  const char* vvs_out = args.Get("vvs-out");
  if (vvs_out != nullptr && !compressor->info().produces_cut) {
    std::fprintf(stderr,
                 "%s: --vvs-out requires a cut-based algorithm ('%s' "
                 "produces a variable grouping)\n",
                 args.cmd, req.algo.c_str());
    return 2;
  }

  if (args.remote) {
    if (int rc = session.Open()) return rc;
    req.artifact = session.artifact();
    req.forest = args.Get("forest-name", "default");
    Timer timer;
    Response resp;
    if (int rc =
            session.Call([&](auto& s) { return s.Compress(req); }, &resp)) {
      return rc;
    }
    PrintCompression(req.algo, resp.monomial_loss, resp.variable_loss,
                     resp.adequate, false, timer.ElapsedSeconds(), resp.vvs);
    std::printf("compressed size: %llu monomials\n",
                static_cast<unsigned long long>(resp.compressed_monomials));
    std::printf("cache: %s (%llu hits, %llu misses)\n",
                resp.cache_hit ? "hit" : "miss",
                static_cast<unsigned long long>(resp.stats.result_hits),
                static_cast<unsigned long long>(resp.stats.result_misses));
    // Four disjoint outcomes: answered from cache, waited on an identical
    // request's in-flight run (dedup), patched a cached predecessor
    // generation's DP state, or computed on the server thread (for "opt"
    // a re-query of the generation's DP state, which runs the DP only
    // when no cached state covers the bound).
    std::printf("single-flight: %s (%llu dedup hits total)\n",
                resp.cache_hit     ? "cache hit, no DP involved"
                : resp.dedup_hit   ? "waited on an in-flight DP"
                : resp.delta_patched
                    ? "patched a predecessor generation (full DP skipped)"
                    : "computed (DP or re-query)",
                static_cast<unsigned long long>(resp.stats.dedup_hits));
    return 0;
  }

  VariableTable vars;
  StatusOr<PolynomialSet> polys =
      ReadDecoded(args.Get("in"), vars, DeserializePolynomialSet);
  if (!polys.ok()) return Fail(polys.status());
  StatusOr<AbstractionForest> forest =
      ReadDecoded(args.Get("forest"), vars, DeserializeForest);
  if (!forest.ok()) return Fail(forest.status());
  Timer timer;
  StatusOr<CompressionResult> result =
      compressor->Compress(*polys, *forest, options);
  if (!result.ok()) return Fail(result.status());
  PrintCompression(req.algo, result->loss.monomial_loss,
                   result->loss.variable_loss, result->adequate,
                   result->budget_exhausted, timer.ElapsedSeconds(),
                   result->Describe(*forest, vars));
  if (vvs_out != nullptr) {
    if (result->grouping) {
      // Unreachable for the built-ins (caught pre-run via produces_cut);
      // guards third-party compressors whose metadata lies.
      std::fprintf(stderr,
                   "compress: --vvs-out requires a cut-based algorithm "
                   "('%s' produced a variable grouping)\n",
                   req.algo.c_str());
      return 2;
    }
    Status w = WriteFile(vvs_out, SerializeVvs(result->vvs, *forest, vars));
    if (!w.ok()) return Fail(w);
  }
  if (const char* out = args.Get("out")) {
    // Grouping results synthesize group representatives outside the
    // variable table; intern them so the compressed set serializes.
    result->InternGrouping(vars);
    PolynomialSet compressed = result->Apply(*forest, *polys);
    Status w = WriteFile(out, SerializePolynomialSet(compressed, vars));
    if (!w.ok()) return Fail(w);
    std::printf("wrote %s: %zu monomials\n", out, compressed.SizeM());
  }
  return 0;
}

/// append and remote-append. Offline mirrors the server's
/// incremental-update path: with --forest and --bound it compresses the
/// base set once (retaining the DP state on the result), appends, then
/// re-derives the compression with OptimalRecompress — the full DP runs
/// again only when a patch gate declines, and the printed fallback names
/// which one.
int CmdAppend(const Args& args) {
  Session session;
  if (!session.Parse(args)) return 2;
  const char* forest_path = args.Get("forest");
  if ((forest_path == nullptr) != (args.Get("bound") == nullptr)) {
    std::fprintf(stderr, "%s: --forest and --bound go together\n", args.cmd);
    return 2;
  }
  uint64_t bound = 0;
  if (forest_path != nullptr && !ParseBound(args, &bound)) return 2;

  if (args.remote) {
    AppendRequest req;
    StatusOr<std::string> data = ReadFileToString(args.Get("in"));
    if (!data.ok()) return Fail(data.status());
    req.polys_bytes = std::move(*data);
    if (int rc = session.Open()) return rc;
    req.artifact = session.artifact();
    Response resp;
    if (int rc =
            session.Call([&](auto& s) { return s.Append(req); }, &resp)) {
      return rc;
    }
    PrintShape("appended to '" + req.artifact + "' (generation " +
                   std::to_string(resp.generation) + "): now",
               resp.poly_count, resp.monomial_count, resp.variable_count);
    return 0;
  }

  VariableTable vars;
  StatusOr<PolynomialSet> polys =
      ReadDecoded(args.Get("in"), vars, DeserializePolynomialSet);
  if (!polys.ok()) return Fail(polys.status());
  StatusOr<PolynomialSet> extra =
      ReadDecoded(args.Get("add"), vars, DeserializePolynomialSet);
  if (!extra.ok()) return Fail(extra.status());
  std::optional<CompressionResult> before;
  AbstractionForest forest;
  if (forest_path != nullptr) {
    StatusOr<AbstractionForest> parsed =
        ReadDecoded(forest_path, vars, DeserializeForest);
    if (!parsed.ok()) return Fail(parsed.status());
    forest = std::move(*parsed);
    StatusOr<CompressionResult> pre =
        OptimalSingleTree(*polys, forest, 0, bound);
    if (!pre.ok()) return Fail(pre.status());
    before = std::move(*pre);
  }

  const uint64_t base_revision = polys->revision();
  for (const Polynomial& p : extra->polynomials()) polys->Add(p);
  PrintShape("appended " + std::to_string(extra->count()) +
                 " polynomials: now",
             polys->count(), polys->SizeM(), polys->SizeV());

  if (forest_path != nullptr) {
    Timer timer;
    RecompressFallback fallback = RecompressFallback::kNone;
    StatusOr<CompressionResult> result =
        OptimalRecompress(*polys, forest, *before,
                          polys->DeltaSince(base_revision), bound, &fallback);
    if (fallback != RecompressFallback::kNone) {
      std::printf("recompress: fallback to the full DP (%s)\n",
                  RecompressFallbackName(fallback));
      timer = Timer();
      result = OptimalSingleTree(*polys, forest, 0, bound);
    }
    if (!result.ok()) return Fail(result.status());
    PrintCompression(fallback == RecompressFallback::kNone ? "opt (patched)"
                                                           : "opt (full)",
                     result->loss.monomial_loss, result->loss.variable_loss,
                     result->adequate, false, timer.ElapsedSeconds(),
                     result->Describe(forest, vars));
  }

  if (const char* out = args.Get("out")) {
    Status w = WriteFile(out, SerializePolynomialSet(*polys, vars));
    if (!w.ok()) return Fail(w);
    std::printf("wrote %s: %zu monomials\n", out, polys->SizeM());
  }
  return 0;
}

int CmdRemoteLoad(const Args& args) {
  const char* in = args.Get("in");
  const char* forest = args.Get("forest");
  if (in == nullptr && forest == nullptr) {
    std::fprintf(stderr, "remote-load requires --in and/or --forest\n");
    return 2;
  }
  if (forest == nullptr && args.Get("forest-name") != nullptr) {
    // Without --forest the name would be silently dropped; refuse.
    std::fprintf(stderr, "remote-load: --forest-name requires --forest\n");
    return 2;
  }
  Session session;
  if (!session.Parse(args)) return 2;
  LoadRequest req;
  if (int rc = ReadLoadRequest(in, forest, args.Get("forest-name", "default"),
                               &req)) {
    return rc;
  }
  if (int rc = session.Open()) return rc;
  req.artifact = session.artifact();
  Response resp;
  if (int rc = session.Call([&](auto& s) { return s.Load(req); }, &resp)) {
    return rc;
  }
  PrintShape("loaded '" + req.artifact + "' (generation " +
                 std::to_string(resp.generation) + "):",
             resp.poly_count, resp.monomial_count, resp.variable_count);
  return 0;
}

int CmdRemoteShutdown(const Args& args) {
  Session session;
  if (!session.Parse(args)) return 2;
  if (int rc = session.Open()) return rc;
  // Not through Call: an in-process service has no shutdown to ask for.
  Response resp;
  if (int rc = session.Receive(session.client().Shutdown(ShutdownRequest{}),
                               &resp)) {
    return rc;
  }
  std::printf("server shutting down\n");
  return 0;
}

// ------------------------------------------------------------ dispatch ---

struct Command {
  const char* name;
  int (*fn)(const Args&);
  std::initializer_list<const char*> flags;
  /// Checked before the command runs.
  std::initializer_list<const char*> required;
};

const Command kCommands[] = {
    {"generate", CmdGenerate,
     {"workload", "scale", "fanouts", "out", "forest-out"},
     {"workload", "out"}},
    {"info", CmdInfo, {"in"}, {"in"}},
    {"compress", CmdCompress,
     {"in", "forest", "bound", "algo", "budget-ms", "vvs-out", "out"},
     {"in", "forest", "bound"}},
    {"append", CmdAppend, {"in", "add", "out", "forest", "bound"},
     {"in", "add"}},
    {"tradeoff", CmdTradeoff, {"in", "forest"}, {"in", "forest"}},
    {"evaluate", CmdEvaluate, {"in", "set", "eval-backend"}, {"in"}},
    {"scenario", CmdScenario,
     {"in", "expr", "expr-file", "shape", "top-k", "eval-backend"},
     {"in"}},
    {"remote-load", CmdRemoteLoad,
     {"host", "port", "name", "in", "forest", "forest-name", "timeout-ms"},
     {"port", "name"}},
    {"remote-append", CmdAppend,
     {"host", "port", "name", "in", "timeout-ms"},
     {"port", "name", "in"}},
    {"remote-info", CmdInfo, {"host", "port", "name", "timeout-ms"},
     {"port"}},
    {"remote-compress", CmdCompress,
     {"host", "port", "name", "bound", "algo", "forest-name", "timeout-ms"},
     {"port", "name", "bound"}},
    {"remote-evaluate", CmdEvaluate,
     {"host", "port", "name", "set", "bound", "algo", "forest-name",
      "eval-backend", "timeout-ms"},
     {"port", "name"}},
    {"remote-scenario", CmdScenario,
     {"host", "port", "name", "expr", "expr-file", "shape", "top-k", "bound",
      "algo", "forest-name", "eval-backend", "timeout-ms"},
     {"port", "name"}},
    {"remote-tradeoff", CmdTradeoff,
     {"host", "port", "name", "forest-name", "timeout-ms"},
     {"port", "name"}},
    {"remote-shutdown", CmdRemoteShutdown, {"host", "port", "timeout-ms"},
     {"port"}},
};

int Run(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage(stderr);
    return 2;
  }
  std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    PrintUsage(stdout);
    return 0;
  }
  for (const Command& command : kCommands) {
    if (cmd != command.name) continue;
    Args args;
    args.cmd = command.name;
    args.remote = cmd.rfind("remote-", 0) == 0;
    if (!ParseArgs(argc, argv, 2, command.flags, &args)) return 2;
    if (args.help) {
      PrintUsage(stdout);
      return 0;
    }
    for (const char* flag : command.required) {
      if (args.Get(flag) != nullptr) continue;
      std::string names;
      const size_t count = command.required.size();
      for (size_t i = 0; i < count; ++i) {
        names += i == 0 ? "--" : i + 1 == count ? " and --" : ", --";
        names += command.required.begin()[i];
      }
      std::fprintf(stderr, "%s requires %s\n", command.name, names.c_str());
      return 2;
    }
    return command.fn(args);
  }
  std::fprintf(stderr, "unknown command '%s'\n\n", cmd.c_str());
  PrintUsage(stderr);
  return 2;
}

}  // namespace
}  // namespace provabs

int main(int argc, char** argv) { return provabs::Run(argc, argv); }
