/// bench_serve: end-to-end load benchmark of a spawned provabs_server.
///
/// For each workload (serve/workloads.h) it spawns the server, loads the
/// workload's artifact over the wire and warms it (timed as set-up), then
/// drives seeded open-loop Poisson traffic from one thread over four
/// pipelined connections through a ladder of fixed rates. Each request is
/// timed from its due time. Between steps it reads the server's Info
/// counters and checks sampled answers against in-process references; a
/// wrong answer fails the run. `--trace` adds a serial in-process replay
/// with per-layer spans (serve/trace.h).
///
/// Usage:
///   bench_serve                      smoke: every workload, 2 s at its
///                                    lowest step, checks on
///   bench_serve [--workload W] [--seed S] [--seconds T] [--trace [0|1]]
///               [--out FILE] [--spans FILE] [--work-dir DIR]
///
/// T is the measured time of the whole ladder (default 54 s): the nominal
/// step gets 30/54 of it, the three others 8/54 each, and an untimed
/// warm-up 3/54 precedes them (at least 1 s each). Every metric
/// is printed as `METRIC workload=W name=N value=V unit=U n=SAMPLES`; the
/// last line is one JSON object {correct, attempted, failed, metrics}
/// (metrics keyed "W/N" when several workloads ran).

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "servebench/serve/common.h"
#include "servebench/serve/loadgen.h"
#include "servebench/serve/trace.h"
#include "servebench/serve/workloads.h"

#ifndef BENCH_SERVE_SERVER_PATH
#error "BENCH_SERVE_SERVER_PATH must name the provabs_server binary"
#endif

namespace provabs::servebench {
namespace {

constexpr size_t kConnections = 4;
constexpr size_t kServerThreads = 4;
constexpr double kLagLimitMs = 1.0;
constexpr double kCompletionFloor = 0.97;
constexpr int kSetups = 5;  ///< set-ups per run; setup_s is their median

struct Options {
  std::string workload;  ///< empty = all
  uint64_t seed = 1;
  double seconds = 54;
  bool trace = false;
  bool smoke = false;
  std::string out;
  std::string spans;
  std::string work_dir;  ///< port file and server log; default next to the binary
};

int Usage() {
  std::fprintf(stderr,
               "usage: bench_serve [--workload NAME] [--seed N] [--seconds T]\n"
               "                   [--trace [0|1]] [--out FILE] [--spans FILE]\n"
               "                   [--work-dir DIR]\n"
               "workloads: evaluate-compressed scenario-sweep compress-cold "
               "append-mixed\n");
  return 2;
}

/// A running server plus the connections the benchmark drives it over.
struct Live {
  ChildProcess proc;
  Connections conns;
};

/// Spawns the server and waits for its port file.
bool Spawn(const Options& opt, size_t cache_mb, Live* live) {
  const std::string port_file = opt.work_dir + "/port.txt";
  std::remove(port_file.c_str());
  std::vector<std::string> argv = {BENCH_SERVE_SERVER_PATH,
                                   "--port", "0",
                                   "--port-file", port_file,
                                   "--workers", std::to_string(kServerThreads),
                                   "--threads", std::to_string(kServerThreads),
                                   "--cache-mb", std::to_string(cache_mb)};
  if (!live->proc.Start(argv, opt.work_dir + "/server.log")) return false;
  const int64_t deadline = NowNs() + 20'000'000'000LL;
  while (NowNs() < deadline) {
    std::ifstream in(port_file);
    long port = 0;
    if (in >> port && port > 0) {
      return live->conns.Open(static_cast<uint16_t>(port), kConnections).ok();
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return false;
}

/// Asks the server to shut down and reaps it (killing it if it hangs).
void Stop(Live* live) {
  if (!live->proc.running()) return;
  if (live->conns.healthy()) {
    (void)live->conns.Call(0, EncodeShutdownRequest(ShutdownRequest{}), 5000);
  }
  live->conns.Close();
  if (!live->proc.WaitFor(10000)) live->proc.Kill();
}

/// Spawn, load, warm: the user-visible set-up. Returns seconds, or -1.
double SetUp(const Options& opt, Workload& w, Live* live) {
  const int64_t t0 = NowNs();
  if (!Spawn(opt, w.cache_mb(), live)) {
    std::fprintf(stderr, "bench_serve: server did not start\n");
    return -1;
  }
  auto loaded = live->conns.Call(0, EncodeLoadRequest(w.load()));
  if (!loaded.ok() || !loaded->ok()) {
    std::fprintf(stderr, "bench_serve: load failed: %s\n",
                 loaded.ok() ? loaded->message.c_str()
                             : loaded.status().ToString().c_str());
    return -1;
  }
  for (const std::string& payload : w.WarmPayloads()) {
    auto r = live->conns.Call(0, payload);
    if (!r.ok() || !r->ok()) {
      std::fprintf(stderr, "bench_serve: warm-up request failed: %s\n",
                   r.ok() ? r->message.c_str() : r.status().ToString().c_str());
      return -1;
    }
  }
  return static_cast<double>(NowNs() - t0) * 1e-9;
}

/// Everything measured in one ladder step.
struct Step {
  double seconds = 0;
  uint64_t offered = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  uint64_t checked = 0;
  uint64_t slo_ok = 0;
  double in_time_ratio = 0;   ///< completed by 1.1 x the step length
  double throughput = 0;      ///< successful requests / s, start to last response
  double slo_throughput = 0;  ///< the same for the SLO verb's stream
  double lag_p99_ms = 0;
  double slo_tail_ms = 0;     ///< the statistic the SLO is judged on
  double server_cpu_s = 0;    ///< server user + system time during the step
  double hwm_mb = 0;          ///< server VmHWM right after the step
  std::map<Verb, std::vector<double>> latency_ms;
  double response_bytes = 0;  ///< mean response frame size
  double scenarios_per_s = 0;
  ServerStats before;
  ServerStats after;
  bool meets_slo = false;
};

Step RunStep(Workload& w, Live* live, double scale, double seconds) {
  Step s;
  s.seconds = seconds;
  auto before = live->conns.Call(0, EncodeInfoRequest(InfoRequest{}));
  std::vector<Planned> plan = w.Plan(scale, seconds);
  const double cpu_before = live->proc.CpuSeconds();
  const int64_t start = NowNs();
  std::vector<Outcome> out = live->conns.Run(plan, 60'000'000'000LL);
  s.server_cpu_s = live->proc.CpuSeconds() - cpu_before;
  s.hwm_mb = live->proc.StatusKb("VmHWM") / 1024.0;
  auto after = live->conns.healthy()
                   ? live->conns.Call(0, EncodeInfoRequest(InfoRequest{}))
                   : StatusOr<Response>(Status::Internal("connection lost"));
  if (before.ok()) s.before = before->stats;
  if (after.ok()) s.after = after->stats;

  const int64_t in_time = start + static_cast<int64_t>(seconds * 1.1e9);
  int64_t last_done = start;
  uint64_t in_time_count = 0;
  uint64_t bytes = 0;
  uint64_t scenarios = 0;
  std::vector<double> lag;
  std::map<int64_t, std::vector<double>> slo_by_second;
  for (size_t i = 0; i < plan.size(); ++i) {
    const Outcome& o = out[i];
    ++s.offered;
    lag.push_back(NsToMs(o.sent_ns - o.due_ns));
    if (!o.ok) {
      ++s.failed;
      continue;
    }
    ++s.ok;
    if (plan[i].verb == w.slo_verb()) ++s.slo_ok;
    if (o.done_ns <= in_time) ++in_time_count;
    last_done = std::max(last_done, o.done_ns);
    bytes += o.response_bytes;
    scenarios += o.scenario_count;
    // A request pipelined behind another starts when that one is done.
    int64_t origin = o.due_ns;
    if (plan[i].after >= 0) origin = std::max(origin, out[plan[i].after].done_ns);
    s.latency_ms[plan[i].verb].push_back(NsToMs(o.done_ns - origin));
    if (plan[i].verb == w.slo_verb()) {
      slo_by_second[(o.due_ns - start) / 1'000'000'000].push_back(NsToMs(o.done_ns - origin));
    }
  }
  const double elapsed = std::max(1e-9, static_cast<double>(last_done - start) * 1e-9);
  s.throughput = static_cast<double>(s.ok) / elapsed;
  s.slo_throughput = static_cast<double>(s.slo_ok) / elapsed;
  s.in_time_ratio = s.offered ? static_cast<double>(in_time_count) / s.offered : 0;
  s.lag_p99_ms = Percentile(lag, 0.99);
  s.response_bytes = s.ok ? static_cast<double>(bytes) / s.ok : 0;
  s.scenarios_per_s = static_cast<double>(scenarios) / seconds;

  Check check = w.Verify(plan, out);
  s.checked = check.checked;
  s.wrong = check.wrong;
  if (check.wrong > 0) {
    std::fprintf(stderr, "bench_serve: %s: %llu wrong answers (%s)\n",
                 w.name().c_str(), static_cast<unsigned long long>(check.wrong),
                 check.first_error.c_str());
  }
  // The generator may run late by 1 ms, or a tenth of the SLO where that
  // is more: latency counts from the due time either way, and on a box
  // whose cores the server saturates the generator is descheduled for
  // whole scheduler slices.
  const double lag_limit = std::max(kLagLimitMs, w.slo_p99_ms() / 10);
  // With three or more seconds of 1,000+ samples each, the SLO is judged
  // on the median over seconds of each second's p99, so one stall of the
  // shared host cannot flip a step; otherwise on the highest tail the
  // whole step supports.
  std::vector<double> per_second;
  for (const auto& [second, v] : slo_by_second) {
    if (v.size() >= 1000) per_second.push_back(Percentile(v, 0.99));
  }
  const std::vector<double>& slo = s.latency_ms[w.slo_verb()];
  s.slo_tail_ms = per_second.size() >= 3 ? Median(per_second)
                                         : Percentile(slo, SupportedTail(slo.size()));
  s.meets_slo = s.failed == 0 && s.wrong == 0 && !slo.empty() &&
                s.slo_tail_ms <= w.slo_p99_ms() && s.in_time_ratio >= kCompletionFloor &&
                s.lag_p99_ms <= lag_limit;
  return s;
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Per-layer numbers derived from the server's own counters over a step.
void AddRunCounters(const Step& s, MetricMap& m) {
  const ServerStats& a = s.after;
  const ServerStats& b = s.before;
  auto d = [](uint64_t x, uint64_t y) { return x >= y ? x - y : 0; };
  const uint64_t n = s.offered;
  m["server.wakeups_per_request"] = {Ratio(d(a.loop_wakeups, b.loop_wakeups), n), "ratio", n};
  m["server.cpu_us_per_request"] = {s.ok ? s.server_cpu_s * 1e6 / s.ok : 0.0, "us", s.ok};
  m["server.rejected_connections"] = {
      static_cast<double>(d(a.rejected_connections, b.rejected_connections)), "count", 1};
  m["wire.response_bytes"] = {s.response_bytes, "bytes", s.ok};
  const uint64_t hits = d(a.result_hits, b.result_hits);
  const uint64_t misses = d(a.result_misses, b.result_misses);
  m["store.result_hit_ratio"] = {Ratio(hits, hits + misses), "ratio", hits + misses};
  m["store.evictions"] = {static_cast<double>(d(a.evictions, b.evictions)), "count", 1};
  m["store.cached_mb"] = {static_cast<double>(a.cached_bytes) / (1 << 20), "MB", 1};
  m["store.dedup_hits"] = {static_cast<double>(d(a.dedup_hits, b.dedup_hits)), "count", 1};
  const uint64_t requests = d(a.eval_requests, b.eval_requests);
  const uint64_t rounds = d(a.eval_batches, b.eval_batches);
  const uint64_t groups = d(a.eval_groups, b.eval_groups);
  m["batcher.requests_per_round"] = {Ratio(requests, rounds), "ratio", rounds};
  m["batcher.lane_width"] = {Ratio(requests, groups), "ratio", groups};
  m["batcher.calls_per_group"] = {
      Ratio(d(a.eval_backend_calls, b.eval_backend_calls), groups), "ratio", groups};
  const uint64_t phits = d(a.program_hits, b.program_hits);
  const uint64_t pmiss = d(a.program_misses, b.program_misses);
  m["scenario.program_hit_ratio"] = {Ratio(phits, phits + pmiss), "ratio", phits + pmiss};
  m["scenario.scenarios_per_s"] = {s.scenarios_per_s, "1/s", 1};
  const uint64_t patched = d(a.delta_patched, b.delta_patched);
  const uint64_t full = d(a.delta_fallback_full, b.delta_fallback_full);
  m["incremental.patched_ratio"] = {Ratio(patched, patched + full), "ratio", patched + full};
}

/// Latency summary of one verb: the median and every tail percentile with
/// at least ten samples beyond it (p90 from 100 samples, p99 from 1,000,
/// p999 from 10,000).
void AddLatency(const std::string& prefix, const std::vector<double>& v,
                MetricMap& m) {
  const uint64_t n = v.size();
  m[prefix + "p50_ms"] = {Median(v), "ms", n};
  if (n >= 100) m[prefix + "p90_ms"] = {Percentile(v, 0.90), "ms", n};
  if (n >= 1000) m[prefix + "p99_ms"] = {Percentile(v, 0.99), "ms", n};
  if (n >= 10000) m[prefix + "p999_ms"] = {Percentile(v, 0.999), "ms", n};
}

struct WorkloadResult {
  MetricMap metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  bool ok = true;
};

/// Step lengths: of every 54 s measured, the nominal step takes 30 and
/// each of the three other steps 8 (the warm-up adds 3 before them).
double StepSeconds(const Options& opt, bool nominal) {
  if (opt.smoke) return 2.0;
  return std::max(1.0, opt.seconds * (nominal ? 30.0 : 8.0) / 54.0);
}

WorkloadResult RunLadder(const Options& opt, Workload& w) {
  WorkloadResult r;
  MetricMap& m = r.metrics;
  std::vector<double> setups;
  Live live;
  const int rounds = opt.smoke ? 1 : kSetups;
  for (int i = 0; i < rounds; ++i) {
    if (i > 0) Stop(&live);
    const double t = SetUp(opt, w, &live);
    if (t < 0) {
      r.ok = false;
      return r;
    }
    setups.push_back(t);
  }
  m["setup_s"] = {Median(setups), "s", setups.size()};

  if (!opt.smoke) {
    // Untimed warm-up at the nominal rate fills caches and the allocator.
    const double warm = std::max(1.0, opt.seconds * 3.0 / 54.0);
    Step s = RunStep(w, &live, w.ladder()[Workload::kNominalStep], warm);
    r.failed += s.failed;
    r.wrong += s.wrong;
  }

  std::vector<Step> steps;
  const size_t last = opt.smoke ? 1 : w.ladder().size();
  for (size_t i = 0; i < last && live.conns.healthy(); ++i) {
    steps.push_back(RunStep(w, &live, w.ladder()[i],
                            StepSeconds(opt, i == Workload::kNominalStep)));
  }
  Stop(&live);
  if (steps.size() < last) {
    std::fprintf(stderr, "bench_serve: %s: lost the server mid-ladder\n", w.name().c_str());
    r.ok = false;
  }

  double best_rate = 0;
  uint64_t passing = 0;
  for (size_t i = 0; i < steps.size(); ++i) {
    const Step& s = steps[i];
    r.attempted += s.offered;
    r.failed += s.failed;
    r.wrong += s.wrong;
    const std::string p = "step" + std::to_string(i) + ".";
    m[p + "offered_rps"] = {s.offered / s.seconds, "1/s", s.offered};
    m[p + "throughput_rps"] = {s.throughput, "1/s", s.ok};
    m[p + "slo_tail_ms"] = {s.slo_tail_ms, "ms", s.latency_ms.at(w.slo_verb()).size()};
    m[p + "lag_p99_ms"] = {s.lag_p99_ms, "ms", s.offered};
    m[p + "in_time_ratio"] = {s.in_time_ratio, "ratio", s.offered};
    m[p + "meets_slo"] = {s.meets_slo ? 1.0 : 0.0, "bool", 1};
    if (s.meets_slo) {
      best_rate = s.slo_throughput;
      ++passing;
    }
  }
  if (!r.ok) return r;
  const Step& nominal = steps.at(opt.smoke ? 0 : Workload::kNominalStep);
  // Peak memory up to the end of the nominal step: the overloaded steps
  // after it measure their backlog, not the workload.
  m["peak_rss_mb"] = {nominal.hwm_mb, "MB", 1};
  m["throughput_rps"] = {nominal.throughput, "1/s", nominal.ok};
  AddLatency("", nominal.latency_ms.at(w.slo_verb()), m);
  m["max_rate_under_slo_rps"] = {best_rate, "1/s", passing};
  m["error_rate"] = {Ratio(r.failed + r.wrong, r.attempted), "ratio", r.attempted};
  m["lag_p99_ms"] = {nominal.lag_p99_ms, "ms", nominal.offered};
  uint64_t checked = 0;
  for (const Step& s : steps) checked += s.checked;
  m["checked"] = {static_cast<double>(checked), "count", 1};
  for (const auto& [verb, v] : nominal.latency_ms) {
    AddLatency(std::string(VerbName(verb)) + "_", v, m);
  }
  AddRunCounters(nominal, m);
  for (auto& [k, v] : w.Notes()) m[k] = v;
  return r;
}

WorkloadResult RunTraced(const Options& opt, Workload& w, SpanLog& spans) {
  WorkloadResult r;
  Live live;
  if (SetUp(opt, w, &live) < 0) {
    r.ok = false;
    return r;
  }
  Tracer tracer(w, spans);
  // Serial replay against the spawned server first, while its state
  // matches the in-process replica's.
  std::vector<Planned> replay = tracer.Requests();
  if (!tracer.TimeRoundTrips(live.conns, replay)) r.ok = false;
  Step s = RunStep(w, &live, w.ladder()[Workload::kNominalStep], StepSeconds(opt, true));
  Stop(&live);
  r.attempted = s.offered + replay.size();
  r.failed = s.failed;
  r.wrong = s.wrong;
  AddRunCounters(s, r.metrics);
  tracer.ReplayInProcess(replay);
  tracer.ProbeLayers();
  for (auto& [k, v] : tracer.Metrics()) r.metrics[k] = v;
  r.failed += tracer.failed();
  return r;
}

int Run(int argc, char** argv) {
  Options opt;
  opt.smoke = argc == 1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (flag == "--trace") {
      opt.trace = true;
      if (i + 1 < argc && (std::strcmp(argv[i + 1], "0") == 0 ||
                           std::strcmp(argv[i + 1], "1") == 0)) {
        opt.trace = argv[++i][0] == '1';
      }
      continue;
    }
    const char* v = value();
    if (v == nullptr) return Usage();
    if (flag == "--workload") {
      opt.workload = v;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(v);
      if (!(opt.seconds >= 1)) return Usage();
    } else if (flag == "--out") {
      opt.out = v;
    } else if (flag == "--spans") {
      opt.spans = v;
    } else if (flag == "--work-dir") {
      opt.work_dir = v;
    } else {
      return Usage();
    }
  }
  if (opt.work_dir.empty()) {
    char exe[4096];
    const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    const std::string path = n > 0 ? std::string(exe, static_cast<size_t>(n)) : "./x";
    opt.work_dir = path.substr(0, path.rfind('/')) + "/work";
  }
  ::mkdir(opt.work_dir.c_str(), 0755);

  std::vector<std::unique_ptr<Workload>> workloads;
  for (auto& w : AllWorkloads()) {
    if (opt.workload.empty() || opt.workload == w->name()) workloads.push_back(std::move(w));
  }
  if (workloads.empty()) return Usage();

  SpanLog spans;
  std::map<std::string, WorkloadResult> results;
  bool ok = true;
  for (auto& w : workloads) {
    w->Prepare(opt.seed);
    WorkloadResult r = opt.trace ? RunTraced(opt, *w, spans) : RunLadder(opt, *w);
    ok = ok && r.ok && r.wrong == 0;
    for (const auto& [name, metric] : r.metrics) {
      std::printf("METRIC workload=%s name=%s value=%s unit=%s n=%llu\n",
                  w->name().c_str(), name.c_str(), JsonNumber(metric.value).c_str(),
                  metric.unit.c_str(), static_cast<unsigned long long>(metric.samples));
    }
    results[w->name()] = std::move(r);
  }
  if (opt.trace && !opt.spans.empty()) spans.Write(opt.spans);

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string metrics;
  std::string out = "{\"seed\": " + std::to_string(opt.seed) +
                    ", \"seconds\": " + JsonNumber(opt.seconds) +
                    ", \"trace\": " + (opt.trace ? "true" : "false") +
                    ", \"workloads\": {";
  bool first_workload = true;
  for (const auto& [name, r] : results) {
    attempted += r.attempted;
    failed += r.failed + r.wrong;
    out += std::string(first_workload ? "" : ", ") + JsonString(name) +
           ": {\"attempted\": " + std::to_string(r.attempted) +
           ", \"failed\": " + std::to_string(r.failed + r.wrong) + ", \"metrics\": {";
    first_workload = false;
    bool first_metric = true;
    for (const auto& [mname, metric] : r.metrics) {
      const std::string key = results.size() == 1 ? mname : name + "/" + mname;
      const std::string entry = "{\"value\": " + JsonNumber(metric.value) +
                                ", \"unit\": " + JsonString(metric.unit);
      metrics += std::string(metrics.empty() ? "" : ", ") + JsonString(key) + ": " +
                 entry + "}";
      out += std::string(first_metric ? "" : ", ") + JsonString(mname) + ": " + entry +
             ", \"n\": " + std::to_string(metric.samples) + "}";
      first_metric = false;
    }
    out += "}}";
  }
  out += "}}\n";
  if (!opt.out.empty()) {
    std::ofstream f(opt.out);
    f << out;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              ok ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace provabs::servebench

int main(int argc, char** argv) { return provabs::servebench::Run(argc, argv); }
