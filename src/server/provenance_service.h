#ifndef PROVABS_SERVER_PROVENANCE_SERVICE_H_
#define PROVABS_SERVER_PROVENANCE_SERVICE_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "parallel/thread_pool.h"
#include "server/artifact_store.h"
#include "server/evaluate_batcher.h"
#include "server/wire_protocol.h"

namespace provabs {

struct ServiceOptions {
  /// Byte budget of the artifact + result cache.
  size_t cache_bytes = size_t{256} << 20;  // 256 MiB
  /// Pool threads an evaluation whose scenarios × monomials exceed
  /// EvaluateBatcher::kSplitWork is split across; smaller evaluations run
  /// on the request's own thread. 0 = hardware concurrency.
  size_t eval_threads = 0;
  /// Upper bound on the scenarios a single EvaluateScenarioProgram request
  /// may expand to. A family's size is known after compilation and before
  /// any expansion, so an oversized program is rejected without
  /// materializing a single valuation.
  uint64_t max_scenarios_per_request = uint64_t{1} << 20;
  /// Scenarios expanded and evaluated per chunk; bounds the transient
  /// dense-valuation memory of huge families.
  uint64_t scenario_chunk = 1024;
  /// Upper bound on an encoded response payload. A request whose response
  /// would exceed it (a `values`-shaped scenario sweep over a large
  /// family, say) gets a structured kOutOfRange error instead of dying in
  /// the transport's frame-size check. 0 = the protocol's kMaxFrameBytes.
  uint64_t max_response_bytes = 0;
  /// Test-only hook, invoked on the computing thread at the start of every
  /// full algorithm run that single-flight actually executes: for "opt"
  /// each DP that builds a generation's state (a first fill, or the one
  /// rebuild at clamp |P|_M; Tradeoff requests included), for the other
  /// algorithms each run per bound. Not for cache hits, deduplicated
  /// waiters, re-queries of a cached state, or states patched from an
  /// ancestor generation (which is how the incremental tests assert an
  /// append skipped the full DP). The concurrency test battery uses it to
  /// count DP executions and to hold leaders at a barrier; production
  /// leaves it empty. For a Tradeoff the key carries bound 0.
  std::function<void(const ArtifactStore::ResultKey&)> compress_hook;
};

/// The serving core: load / compress / tradeoff / evaluate over named
/// artifacts, decoupled from any transport so it is unit-testable without
/// sockets. `tools/provabs_server` wraps it in a socket accept loop; the
/// CLI's offline pipeline and the server share the same algorithm layer
/// underneath (algo/, core/, io/).
///
/// All handlers are thread-safe and may be called concurrently from many
/// connection threads. Application errors never surface as C++ failures:
/// every handler returns a Response whose code/message carry the Status.
class ProvenanceService {
 public:
  explicit ProvenanceService(const ServiceOptions& options = {});

  ProvenanceService(const ProvenanceService&) = delete;
  ProvenanceService& operator=(const ProvenanceService&) = delete;

  Response Load(const LoadRequest& req);
  Response Append(const AppendRequest& req);
  Response Compress(const CompressRequest& req);
  Response Evaluate(const EvaluateRequest& req);
  Response EvaluateScenarioProgram(const EvaluateScenarioProgramRequest& req);
  Response Info(const InfoRequest& req);
  Response Tradeoff(const TradeoffRequest& req);
  Response ListAlgos(const ListAlgosRequest& req);
  Response ListBackends(const ListBackendsRequest& req);

  /// Decodes one request payload, dispatches it, and encodes the response.
  /// Malformed payloads yield an encoded error response (the connection can
  /// keep going). Sets `*shutdown` when the payload was a shutdown request.
  std::string HandleFrame(std::string_view payload, bool* shutdown);

  ArtifactStore& store() { return store_; }
  EvaluateBatcher& batcher() { return batcher_; }

  /// How compressed views were built, each by the first evaluate or
  /// scenario request that read it (a compress builds none). Counted
  /// in-process for tests and embedders; not part of the wire stats block.
  struct ViewBuildStats {
    /// The predecessor generation's cut was kept: its view plus Apply of
    /// the appended polynomials, its compiled form grown.
    uint64_t extended = 0;
    /// The predecessor generation chose a different cut: full Apply.
    uint64_t cut_changed = 0;
    /// No cached predecessor generation: full Apply.
    uint64_t full = 0;
  };
  ViewBuildStats view_build_stats() const;

  /// Installed by the socket front end (Server) so every response's stats
  /// block carries the transport counters; pass nullptr to uninstall.
  /// Serving without a server simply leaves the counters at zero.
  void SetTransportStatsProvider(std::function<void(ServerStats&)> provider);

 private:
  /// HandleFrame's decode/dispatch/encode core, before the response-size
  /// guard is applied.
  std::string HandleFrameImpl(std::string_view payload, bool* shutdown);
  /// Acknowledges a shutdown request; HandleFrame raises `*shutdown` and
  /// the transport stops.
  Response Shutdown(const ShutdownRequest& req);
  /// Fills the stats section of `resp` from store + evaluator counters.
  void AttachStats(Response& resp);
  /// Every handler's single exit: `body(resp)` fills the verb's fields and
  /// returns the Status carried in code/message, then the stats block is
  /// attached.
  template <typename Body>
  Response Respond(MessageKind kind, Body&& body);
  /// The single compress dispatch shared by Compress and
  /// Evaluate-over-compressed: resolves `algo` through the process-wide
  /// CompressorRegistry (unknown names fail listing the registered set),
  /// then returns the cached result, waits on an identical in-flight
  /// request, or computes it and caches it (single-flight; see
  /// ArtifactStore::GetOrCompute) — against
  /// the caller's `artifact` snapshot (never re-fetched, so a concurrent
  /// reload cannot swap the VariableTable out from under ids the caller
  /// already resolved). With `with_view` the returned entry holds the
  /// compressed view, built and republished on its first read. Fills the
  /// compress section of `resp` (cache_hit and dedup_hit even when the run
  /// failed).
  StatusOr<std::shared_ptr<const ArtifactStore::CompressedResult>>
  CompressInternal(const std::shared_ptr<const Artifact>& artifact,
                   const std::string& artifact_name,
                   const std::string& forest_name, const std::string& algo,
                   uint64_t bound, Response& resp, bool with_view);
  /// The polynomials an evaluate or scenario request runs on: the
  /// artifact's own, or with `req.compressed` its compression through
  /// CompressInternal. The pointer aliases its owner (artifact or cached
  /// result), keeping it alive for the evaluation.
  template <typename Request>
  StatusOr<std::shared_ptr<const PolynomialSet>> ResolveTarget(
      const std::shared_ptr<const Artifact>& artifact, const Request& req,
      Response& resp);

  /// The compute function CompressInternal hands to GetOrCompute. "opt"
  /// re-queries the generation's retained DP state (StateFor); the other
  /// algorithms run in full (which is when compress_hook_ fires). Builds
  /// no view: it records the nearest cached ancestor generation's view
  /// when that generation chose the same cut, for BuildView to grow.
  StatusOr<ArtifactStore::CompressedResult> ComputeCompression(
      const std::shared_ptr<const Artifact>& artifact,
      const AbstractionForest& forest, const Compressor& compressor,
      const ArtifactStore::ResultKey& key);
  /// The generation's "opt" state for `key`'s forest with clamp ≥ k, from
  /// the store or filled single-flight: patched from the nearest cached
  /// ancestor generation's state when it allows (bumps the delta
  /// counters and sets `*patched`, if given), else built by a DP at k plus
  /// the default headroom, or at |P|_M when a narrower state is cached.
  StatusOr<ArtifactStore::DpState> StateFor(
      const std::shared_ptr<const Artifact>& artifact,
      const AbstractionForest& forest, const ArtifactStore::ResultKey& key,
      uint32_t k, bool* patched);
  /// `entry` with its view: the base view grown by Apply of the appended
  /// polynomials, or a full Apply (counted in view_build_stats()).
  StatusOr<ArtifactStore::CompressedResult> BuildView(
      const Artifact& artifact, const AbstractionForest& forest,
      const ArtifactStore::CompressedResult& entry);

  ArtifactStore store_;
  ThreadPool pool_;
  EvaluateBatcher batcher_;
  std::function<void(const ArtifactStore::ResultKey&)> compress_hook_;
  uint64_t max_scenarios_per_request_;
  uint64_t scenario_chunk_;
  uint64_t max_response_bytes_;
  /// Incremental-update telemetry (see ServerStats for the taxonomy).
  std::atomic<uint64_t> delta_patched_{0};
  std::atomic<uint64_t> delta_fallback_full_{0};
  std::atomic<uint64_t> views_extended_{0};
  std::atomic<uint64_t> views_cut_changed_{0};
  std::atomic<uint64_t> views_full_{0};

  std::mutex transport_mutex_;
  std::function<void(ServerStats&)> transport_stats_;  // guarded above
};

}  // namespace provabs

#endif  // PROVABS_SERVER_PROVENANCE_SERVICE_H_
