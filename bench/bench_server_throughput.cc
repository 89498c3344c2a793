/// Extension bench: serving-layer throughput. Measures the effects the
/// provenance server exists for (ROADMAP "serving layer"): (1) the
/// artifact cache turning repeat compressions into O(1) lookups, and a
/// generation's retained DP state turning a compress at a new bound into a
/// re-query, (2) concurrent analysts' valuations through the serving
/// evaluator (each on its own thread, split across the pool only above
/// EvaluateBatcher::kSplitWork) versus one serial EvaluateAll loop, and (3) the single-flight layer collapsing a same-key burst of
/// concurrent compress requests to one DP run, and a burst at distinct
/// bounds to one DP as well.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/valuation.h"
#include "io/serializer.h"
#include "parallel/thread_pool.h"
#include "server/client.h"
#include "server/provenance_service.h"
#include "server/server.h"

namespace provabs::bench {
namespace {

/// Returns false when a same-run floor fails.
bool Run(const std::vector<std::string>& algos) {
  PrintHeader("Serving layer: compression cache and concurrent evaluation");
  bool floors_hold = true;

  Workload w = MakeTelephonyWorkload();
  AbstractionForest forest;
  forest.AddTree(
      BuildUniformTree(*w.vars, w.tree_leaves, {4, 4}, "SRV_"));
  const size_t bound = FeasibleBound(w.polys, forest, 0.5);

  // A small forest over a leaf subset for the per-algorithm scenario: its
  // cut space is tiny, so even the exhaustive "brute" finishes and every
  // registered algorithm is comparable on one instance.
  std::vector<VariableId> small_leaves(
      w.tree_leaves.begin(),
      w.tree_leaves.begin() +
          std::min<size_t>(w.tree_leaves.size(), 32));
  AbstractionForest small_forest;
  small_forest.AddTree(
      BuildUniformTree(*w.vars, small_leaves, {2, 2}, "SRVS_"));
  const size_t small_bound = FeasibleBound(w.polys, small_forest, 0.5);

  ProvenanceService service;
  LoadRequest load;
  load.artifact = "bench";
  load.polys_bytes = SerializePolynomialSet(w.polys, *w.vars);
  load.forests = {{"default", SerializeForest(forest, *w.vars)},
                  {"small", SerializeForest(small_forest, *w.vars)}};
  Response loaded = service.Load(load);
  if (!loaded.ok()) {
    std::printf("load failed: %s\n", loaded.message.c_str());
    return false;
  }

  // (1) Compression: cold DP vs cache hit vs re-query. A cold compress
  // runs the DP (and builds no view); a later compress at an uncached
  // bound whose k fits under the generation's retained clamp re-queries
  // that DP state.
  CompressRequest compress;
  compress.artifact = "bench";
  compress.bound = bound;
  Timer t_cold;
  Response cold = service.Compress(compress);
  double cold_s = t_cold.ElapsedSeconds();
  constexpr int kHits = 1000;
  Timer t_hits;
  for (int i = 0; i < kHits; ++i) service.Compress(compress);
  double hit_s = t_hits.ElapsedSeconds() / kHits;
  std::printf("%-28s %14s %16s %10s\n", "compress", "cold[s]",
              "cache-hit[s]", "speedup");
  std::printf("%-28s %14.5f %16.8f %9.0fx%s\n", "opt DP", cold_s, hit_s,
              hit_s > 0 ? cold_s / hit_s : 0.0,
              cold.ok() ? "" : " (error)");
  // The hot serving path is a mutex + hash probe: a cache hit less than
  // 100x faster than the cold DP means the path grew real work (on a
  // 4-vCPU Xeon VM: ~1200-1400x at smoke scale, ~19000x at full scale).
  const double cached_ratio = hit_s > 0 ? cold_s / hit_s : 0.0;
  std::printf("MACHINEKEY cpu=%s\n", CpuModel().c_str());
  std::printf("SRVSTAT metric=cached_compress ratio=%.1f\n", cached_ratio);
  floors_hold &= RatioFloorHolds("cached_compress", cached_ratio, 100.0);

  // Looser bounds than the cold one are feasible and lie within the
  // retained clamp (k plus the default headroom of 64), so each is an
  // uncached re-query with no DP.
  constexpr int kRequeries = 32;
  uint64_t requery_errors = 0;
  Timer t_requery;
  for (int i = 1; i <= kRequeries; ++i) {
    CompressRequest req = compress;
    req.bound = bound + static_cast<uint64_t>(i);
    Response resp = service.Compress(req);
    if (!resp.ok() || resp.cache_hit) ++requery_errors;
  }
  const double requery_s = t_requery.ElapsedSeconds() / kRequeries;
  std::printf("%-28s %14.5f %16.8f %9.0fx%s\n", "opt re-query", cold_s,
              requery_s, requery_s > 0 ? cold_s / requery_s : 0.0,
              requery_errors > 0 ? " (errors!)" : "");
  // A re-query is a root lookup plus a convolution-free reconstruction,
  // no DP. The floor is a third of the smallest ratio of five smoke-scale
  // runs on a 4-vCPU Xeon VM (92-179x).
  const double requery_ratio =
      requery_errors == 0 && requery_s > 0 ? cold_s / requery_s : 0.0;
  std::printf("SRVSTAT metric=requery_compress ratio=%.1f\n", requery_ratio);
  floors_hold &= RatioFloorHolds("requery_compress", requery_ratio, 30.0);

  // (2) Evaluation: per-request serial loop vs concurrent clients through
  // the serving evaluator.
  const int kClients = 8;
  const int kRequestsPerClient = 50;
  std::vector<Valuation> valuations;
  for (int c = 0; c < kClients; ++c) {
    Valuation val;
    for (VariableId v : w.tree_leaves) val.Set(v, 0.5 + 0.05 * c);
    valuations.push_back(std::move(val));
  }

  Timer t_serial;
  for (int r = 0; r < kRequestsPerClient; ++r) {
    for (int c = 0; c < kClients; ++c) {
      auto answers = valuations[c].EvaluateAll(w.polys);
      (void)answers;
    }
  }
  double serial_s = t_serial.ElapsedSeconds();

  ThreadPool pool(std::thread::hardware_concurrency());
  EvaluateBatcher batcher(pool);
  auto shared = std::make_shared<PolynomialSet>(w.polys);
  Timer t_batched;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRequestsPerClient; ++r) {
        auto answers = batcher.Evaluate(shared, valuations[c]);
        (void)answers;
      }
    });
  }
  for (auto& t : clients) t.join();
  double batched_s = t_batched.ElapsedSeconds();

  const double total = static_cast<double>(kClients) * kRequestsPerClient;
  std::printf("\n%-28s %14s %16s %10s\n", "evaluate (8 clients x 50)",
              "total[s]", "req/s", "speedup");
  std::printf("%-28s %14.4f %16.0f %10s\n", "serial loop", serial_s,
              total / serial_s, "1x");
  std::printf("%-28s %14.4f %16.0f %9.1fx\n", "evaluator (8 threads)",
              batched_s, total / batched_s, serial_s / batched_s);
  EvaluateBatcher::Stats stats = batcher.stats();
  std::printf("evaluator: %llu requests in %llu calls (%llu backend calls)\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.calls),
              static_cast<unsigned long long>(stats.backend_calls));

  // (3) Concurrent compression. Reloading the artifact bumps its
  // generation, so every burst below starts cold (no cached result or DP
  // state). Same key: N threads request one key — single-flight runs the
  // DP once and the burst costs ~1 cold DP, not N. Distinct bounds: N
  // threads request N different bounds on one generation — one DP builds
  // the generation's state (the others wait on it) and every bound is a
  // re-query of it, so this burst also costs ~1 cold DP.
  const int kBurst = 8;
  auto reload = [&] {
    Response r = service.Load(load);
    if (!r.ok()) std::printf("reload failed: %s\n", r.message.c_str());
  };
  struct BurstResult {
    double seconds = 0;
    uint64_t dedup = 0;
    uint64_t errors = 0;
  };
  auto burst = [&](bool same_key) {
    std::vector<std::thread> workers;
    std::atomic<uint64_t> dedup{0};
    std::atomic<uint64_t> errors{0};
    Timer t;
    for (int c = 0; c < kBurst; ++c) {
      workers.emplace_back([&, c] {
        CompressRequest req;
        req.artifact = "bench";
        req.bound = same_key ? bound : bound - static_cast<uint64_t>(c);
        Response resp = service.Compress(req);
        if (resp.dedup_hit) dedup.fetch_add(1);
        // A failed DP returns in microseconds; counting it as a timing
        // sample would silently understate the burst cost.
        if (!resp.ok()) errors.fetch_add(1);
      });
    }
    for (auto& w2 : workers) w2.join();
    return BurstResult{t.ElapsedSeconds(), dedup.load(), errors.load()};
  };

  reload();
  BurstResult same = burst(/*same_key=*/true);
  reload();
  BurstResult distinct = burst(/*same_key=*/false);

  std::printf("\n%-28s %14s %16s %10s\n", "concurrent compress (8 thr)",
              "total[s]", "vs cold DP", "dedup");
  for (const auto& [label, r] :
       {std::make_pair("same key (single-flight)", same),
        std::make_pair("distinct bounds (1 DP)", distinct)}) {
    std::printf("%-28s %14.5f %15.2fx %9llu%s\n", label, r.seconds,
                cold_s > 0 ? r.seconds / cold_s : 0.0,
                static_cast<unsigned long long>(r.dedup),
                r.errors > 0 ? " (errors!)" : "");
  }

  // (4) Event-loop front end: request latency over a real socket with 64
  // idle connections parked on the server. Under the old
  // thread-per-connection design those cost 64 blocked threads; the epoll
  // loop holds them as bare fds, so a foreground client's Info round trips
  // should be indistinguishable from an empty server (ratio ~1.0).
  {
    Server server(service, ServerOptions{});
    Status started = server.Start();
    if (!started.ok()) {
      std::printf("server start failed: %s\n", started.ToString().c_str());
    } else {
      const int kInfoRpcs = 200;
      auto rpc_batch = [&](const char* what) -> double {
        auto client = Client::Connect("127.0.0.1", server.port());
        if (!client.ok()) {
          std::printf("%s connect failed: %s\n", what,
                      client.status().ToString().c_str());
          return -1.0;
        }
        Timer t;
        for (int i = 0; i < kInfoRpcs; ++i) {
          auto resp = client->Info(InfoRequest{});
          if (!resp.ok()) {
            std::printf("%s rpc failed: %s\n", what,
                        resp.status().ToString().c_str());
            return -1.0;
          }
        }
        return t.ElapsedSeconds();
      };
      rpc_batch("warmup");  // First-connection and cache warmup.
      double alone_s = rpc_batch("alone");
      std::vector<Client> parked;
      for (int c = 0; c < 64; ++c) {
        auto idle = Client::Connect("127.0.0.1", server.port());
        if (!idle.ok()) {
          std::printf("idle connect %d failed: %s\n", c,
                      idle.status().ToString().c_str());
          break;
        }
        parked.push_back(std::move(*idle));
      }
      double parked_s = rpc_batch("with 64 idle conns");
      const double ratio =
          (alone_s > 0 && parked_s > 0) ? alone_s / parked_s : 0.0;
      std::printf("\n%-28s %14s %16s %10s\n",
                  "event loop (200 Info RPCs)", "total[s]", "rpc/s",
                  "vs alone");
      std::printf("%-28s %14.4f %16.0f %10s\n", "alone", alone_s,
                  alone_s > 0 ? kInfoRpcs / alone_s : 0.0, "1x");
      std::printf("%-28s %14.4f %16.0f %9.2fx\n", "with 64 idle conns",
                  parked_s, parked_s > 0 ? kInfoRpcs / parked_s : 0.0,
                  ratio);
      Server::TransportStats tstats = server.transport_stats();
      std::printf("transport: %llu active conns, %llu rejected, %llu "
                  "idle-reaped, %llu loop wakeups\n",
                  static_cast<unsigned long long>(tstats.active_connections),
                  static_cast<unsigned long long>(tstats.rejected_connections),
                  static_cast<unsigned long long>(tstats.idle_reaped),
                  static_cast<unsigned long long>(tstats.loop_wakeups));
      // Idle connections dragging foreground latency to half the lone
      // client's means the event loop regressed (per-connection threads,
      // busy wakeups, or O(conns) scans crept back in).
      std::printf("SRVSTAT metric=concurrent_connections ratio=%.2f\n",
                  ratio);
      floors_hold &= RatioFloorHolds("concurrent_connections", ratio, 0.5);
      parked.clear();
      server.Shutdown();
      server.Wait();
    }
  }

  // (5) Per-algorithm cold compress through the registry, each at the same
  // (small forest, bound) instance — the comparable baseline future
  // algorithm PRs extend. Reloading between runs keeps every run cold.
  std::printf("\n%-28s %14s %10s %10s %10s\n", "cold compress (forest "
              "small)", "time[s]", "ML", "VL", "cache");
  for (const std::string& algo : algos) {
    reload();
    CompressRequest req;
    req.artifact = "bench";
    req.forest = "small";
    req.algo = algo;
    req.bound = small_bound;
    Timer t;
    Response resp = service.Compress(req);
    double s = t.ElapsedSeconds();
    if (!resp.ok()) {
      std::printf("%-28s %14.5f %32s\n", algo.c_str(), s,
                  ("error: " + resp.message).c_str());
      continue;
    }
    std::printf("%-28s %14.5f %10llu %10llu %10s\n", algo.c_str(), s,
                static_cast<unsigned long long>(resp.monomial_loss),
                static_cast<unsigned long long>(resp.variable_loss),
                resp.cache_hit ? "hit" : "miss");
  }
  return floors_hold;
}

}  // namespace
}  // namespace provabs::bench

int main(int argc, char** argv) {
  return provabs::bench::Run(provabs::bench::SelectedAlgos(
             argc, argv, provabs::CompressorRegistry::Default().Names()))
             ? 0
             : 1;
}
