#include "server/provenance_service.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "algo/compressor.h"
#include "algo/optimal_single_tree.h"
#include "algo/tradeoff_curve.h"
#include "common/macros.h"
#include "core/compiled_polynomial_set.h"
#include "scenario/program.h"

namespace provabs {

namespace {

void SetError(Response& resp, const Status& status) {
  resp.code = status.code();
  resp.message = status.message();
}

Status NotLoaded(const std::string& artifact) {
  return Status::NotFound("artifact '" + artifact + "' not loaded");
}

Status NoForest(const std::string& artifact, const std::string& forest) {
  return Status::NotFound("artifact '" + artifact + "' has no forest '" +
                          forest + "'");
}

/// The artifact fields Load, Append and Info report, read off the compiled
/// form the store warmed (no scan of the polynomials).
void SetShape(Response& resp, const Artifact& artifact) {
  std::shared_ptr<const CompiledPolynomialSet> compiled =
      artifact.polys.Compiled();
  resp.generation = artifact.generation;
  resp.poly_count = compiled->poly_count();
  resp.monomial_count = compiled->monomial_count();
  resp.variable_count = compiled->slot_count();
}

/// The chosen nodes in canonical order.
std::vector<NodeRef> SortedCut(const ValidVariableSet& vvs) {
  std::vector<NodeRef> nodes = vvs.nodes();
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

/// The generations whose results and states a publish for `artifact`
/// supersedes: its ancestry.
std::vector<uint64_t> Superseded(const Artifact& artifact) {
  std::vector<uint64_t> generations;
  generations.reserve(artifact.ancestry.size());
  for (const Artifact::Ancestor& ancestor : artifact.ancestry) {
    generations.push_back(ancestor.generation);
  }
  return generations;
}

/// An explicit backend name is validated up front so a typo fails with the
/// registry's name-listing error before any work is done; "" keeps the
/// registry's auto policy, which picks per evaluation call.
Status CheckBackend(const std::string& name) {
  if (name.empty()) return Status::OK();
  return EvaluationBackendRegistry::Default().Resolve(name).status();
}

}  // namespace

ProvenanceService::ProvenanceService(const ServiceOptions& options)
    : store_(options.cache_bytes),
      pool_(options.eval_threads != 0
                ? options.eval_threads
                : static_cast<size_t>(std::thread::hardware_concurrency())),
      batcher_(pool_),
      compress_hook_(options.compress_hook),
      max_scenarios_per_request_(options.max_scenarios_per_request),
      scenario_chunk_(options.scenario_chunk != 0 ? options.scenario_chunk
                                                  : 1024),
      max_response_bytes_(options.max_response_bytes != 0
                              ? options.max_response_bytes
                              : kMaxFrameBytes) {}

void ProvenanceService::SetTransportStatsProvider(
    std::function<void(ServerStats&)> provider) {
  std::lock_guard<std::mutex> lock(transport_mutex_);
  transport_stats_ = std::move(provider);
}

void ProvenanceService::AttachStats(Response& resp) {
  ArtifactStore::Stats store_stats = store_.stats();
  resp.stats.artifact_count = store_stats.artifact_count;
  resp.stats.result_count = store_stats.result_count;
  resp.stats.cached_bytes = store_stats.cached_bytes;
  resp.stats.byte_budget = store_stats.byte_budget;
  resp.stats.result_hits = store_stats.result_hits;
  resp.stats.result_misses = store_stats.result_misses;
  resp.stats.evictions = store_stats.evictions;
  resp.stats.dedup_hits = store_stats.dedup_hits;
  resp.stats.inflight_waiters = store_stats.inflight_waiters;
  resp.stats.program_count = store_stats.program_count;
  resp.stats.program_hits = store_stats.program_hits;
  resp.stats.program_misses = store_stats.program_misses;
  resp.stats.delta_patched =
      delta_patched_.load(std::memory_order_relaxed);
  resp.stats.delta_fallback_full =
      delta_fallback_full_.load(std::memory_order_relaxed);
  EvaluateBatcher::Stats eval_stats = batcher_.stats();
  resp.stats.eval_batches = eval_stats.calls;
  resp.stats.eval_requests = eval_stats.requests;
  resp.stats.eval_groups = eval_stats.calls;
  resp.stats.eval_backend_calls = eval_stats.backend_calls;
  {
    std::lock_guard<std::mutex> lock(transport_mutex_);
    if (transport_stats_) transport_stats_(resp.stats);
  }
}

template <typename Body>
Response ProvenanceService::Respond(MessageKind kind, Body&& body) {
  Response resp;
  resp.request_kind = kind;
  Status status = body(resp);
  if (!status.ok()) SetError(resp, status);
  AttachStats(resp);
  return resp;
}

Response ProvenanceService::Load(const LoadRequest& req) {
  return Respond(MessageKind::kLoadRequest, [&](Response& resp) -> Status {
    if (req.artifact.empty()) {
      return Status::InvalidArgument("artifact name must be non-empty");
    }
    PROVABS_ASSIGN_OR_RETURN(
        std::shared_ptr<const Artifact> artifact,
        store_.Load(req.artifact, req.polys_bytes, req.forests));
    SetShape(resp, *artifact);
    return Status::OK();
  });
}

Response ProvenanceService::Append(const AppendRequest& req) {
  return Respond(MessageKind::kAppendRequest, [&](Response& resp) -> Status {
    if (req.artifact.empty()) {
      return Status::InvalidArgument("artifact name must be non-empty");
    }
    PROVABS_ASSIGN_OR_RETURN(std::shared_ptr<const Artifact> artifact,
                             store_.Append(req.artifact, req.polys_bytes));
    SetShape(resp, *artifact);
    return Status::OK();
  });
}

StatusOr<ArtifactStore::DpState> ProvenanceService::StateFor(
    const std::shared_ptr<const Artifact>& artifact,
    const AbstractionForest& forest, const ArtifactStore::ResultKey& key,
    uint32_t k, bool* patched) {
  const ArtifactStore::StateKey state_key{key.artifact, key.generation,
                                          key.forest};
  auto compute = [&](const ArtifactStore::DpState& narrow)
      -> StatusOr<ArtifactStore::DpState> {
    const PolynomialSet& polys = artifact->polys;
    // The first fill of a generation patches the nearest cached ancestor
    // generation's state by the delta, when its clamp still covers k.
    for (auto it = artifact->ancestry.rbegin();
         narrow == nullptr && it != artifact->ancestry.rend(); ++it) {
      ArtifactStore::StateKey prev_key = state_key;
      prev_key.generation = it->generation;
      ArtifactStore::DpState prev = store_.PeekState(prev_key);
      if (prev == nullptr) continue;  // Older ancestors may still be cached.
      RecompressFallback fallback = RecompressFallback::kNone;
      StatusOr<ArtifactStore::DpState> next = internal::PatchDpState(
          polys, forest, prev, polys.DeltaSince(it->revision), k, &fallback);
      if (fallback != RecompressFallback::kNone) {
        delta_fallback_full_.fetch_add(1, std::memory_order_relaxed);
        break;  // A declined patch at the nearest ancestor settles it.
      }
      if (next.ok()) {
        delta_patched_.fetch_add(1, std::memory_order_relaxed);
        if (patched != nullptr) *patched = true;
      }
      return next;
    }
    if (compress_hook_) compress_hook_(key);
    // A generation's first DP runs at k plus the default headroom, as cheap
    // as one bound needs; a later bound beyond that clamp rebuilds once at
    // |P|_M, after which every bound is a re-query.
    const uint64_t clamp =
        narrow == nullptr ? uint64_t{k} + OptimalOptions{}.retain_headroom
                          : polys.SizeM();
    return internal::BuildDpState(
        polys, forest, 0,
        static_cast<uint32_t>(std::min<uint64_t>(clamp, UINT32_MAX)));
  };
  return store_.GetOrComputeState(state_key, k, compute,
                                  Superseded(*artifact));
}

StatusOr<ArtifactStore::CompressedResult>
ProvenanceService::ComputeCompression(
    const std::shared_ptr<const Artifact>& artifact,
    const AbstractionForest& forest, const Compressor& compressor,
    const ArtifactStore::ResultKey& key) {
  // The nearest cached ancestor generation's result under the same key:
  // its view is what this generation's view can grow from.
  std::shared_ptr<const ArtifactStore::CompressedResult> prev;
  for (auto it = artifact->ancestry.rbegin();
       prev == nullptr && it != artifact->ancestry.rend(); ++it) {
    ArtifactStore::ResultKey prev_key = key;
    prev_key.generation = it->generation;
    prev = store_.PeekResult(prev_key);
  }
  ArtifactStore::CompressedResult computed;
  CompressionResult result;
  if (key.algo == "opt") {
    // A re-query of the generation's retained tables; the DP runs only when
    // no cached state covers this bound's k.
    const uint32_t k = internal::RequiredLoss(artifact->polys.SizeM(),
                                              static_cast<size_t>(key.bound));
    PROVABS_ASSIGN_OR_RETURN(
        ArtifactStore::DpState state,
        StateFor(artifact, forest, key, k, &computed.delta_patched));
    PROVABS_ASSIGN_OR_RETURN(
        result,
        internal::QueryDpState(*state, forest, static_cast<size_t>(key.bound)));
  } else {
    // Other algorithms retain nothing to patch: a cached predecessor only
    // means the full run happens anyway.
    if (prev != nullptr) {
      delta_fallback_full_.fetch_add(1, std::memory_order_relaxed);
    }
    if (compress_hook_) compress_hook_(key);
    CompressOptions copts;
    copts.bound = key.bound;
    PROVABS_ASSIGN_OR_RETURN(
        result, compressor.Compress(artifact->polys, forest, copts));
    result.dp_state = nullptr;
  }
  computed.loss = result.loss;
  computed.adequate = result.adequate;
  computed.vvs_names = result.Describe(forest, *artifact->vars);
  // No view yet; record what the first read can grow it from. Apply maps
  // each polynomial on its own, so under the predecessor's cut the new view
  // is the predecessor's view plus Apply of the appended polynomials.
  if (prev != nullptr) {
    if (!result.grouping && !prev->algo_result.grouping &&
        SortedCut(result.vvs) == SortedCut(prev->algo_result.vvs)) {
      computed.view_base =
          prev->view_built
              ? std::shared_ptr<const PolynomialSet>(prev, &prev->compressed)
              : prev->view_base;
      if (computed.view_base != nullptr) computed.view_bytes = prev->view_bytes;
    } else {
      computed.cut_changed = true;
    }
  }
  computed.algo_result = std::move(result);
  return computed;
}

StatusOr<ArtifactStore::CompressedResult> ProvenanceService::BuildView(
    const Artifact& artifact, const AbstractionForest& forest,
    const ArtifactStore::CompressedResult& entry) {
  ArtifactStore::CompressedResult built = entry;
  if (entry.view_base != nullptr) {
    // The copy shares the base view's compiled snapshot, which the Adds
    // keep as the prefix the new compiled form grows from.
    const std::vector<Polynomial>& polys = artifact.polys.polynomials();
    const size_t first_added = entry.view_base->count();
    PROVABS_CHECK(first_added <= polys.size());
    PolynomialSet appended(std::vector<Polynomial>(
        polys.begin() + static_cast<std::ptrdiff_t>(first_added),
        polys.end()));
    const PolynomialSet mapped = entry.algo_result.Apply(forest, appended);
    built.compressed = *entry.view_base;
    for (const Polynomial& p : mapped.polynomials()) built.compressed.Add(p);
    views_extended_.fetch_add(1, std::memory_order_relaxed);
  } else {
    built.compressed = entry.algo_result.Apply(forest, artifact.polys);
    (entry.cut_changed ? views_cut_changed_ : views_full_)
        .fetch_add(1, std::memory_order_relaxed);
  }
  return built;
}

ProvenanceService::ViewBuildStats ProvenanceService::view_build_stats()
    const {
  ViewBuildStats stats;
  stats.extended = views_extended_.load(std::memory_order_relaxed);
  stats.cut_changed = views_cut_changed_.load(std::memory_order_relaxed);
  stats.full = views_full_.load(std::memory_order_relaxed);
  return stats;
}

StatusOr<std::shared_ptr<const ArtifactStore::CompressedResult>>
ProvenanceService::CompressInternal(
    const std::shared_ptr<const Artifact>& artifact,
    const std::string& artifact_name, const std::string& forest_name,
    const std::string& algo, uint64_t bound, Response& resp,
    bool with_view) {
  const AbstractionForest* forest = artifact->FindForest(forest_name);
  if (forest == nullptr) return NoForest(artifact_name, forest_name);
  PROVABS_ASSIGN_OR_RETURN(const Compressor* compressor,
                           CompressorRegistry::Default().Resolve(algo));

  ArtifactStore::ResultKey key{artifact_name, artifact->generation,
                               forest_name, bound, algo};
  // Single-flight: the first request for this key runs the algorithm on
  // this thread; concurrent identical requests block on its outcome instead
  // of computing twice; distinct keys proceed fully in parallel. A failed
  // run is reported to every waiter and never cached. Publishing drops the
  // ancestors' results for the same key, which nothing can reach any more.
  ArtifactStore::GetOrComputeInfo info;
  StatusOr<std::shared_ptr<const ArtifactStore::CompressedResult>> cached =
      store_.GetOrCompute(
          key,
          [&]() -> StatusOr<ArtifactStore::CompressedResult> {
            return ComputeCompression(artifact, *forest, *compressor, key);
          },
          &info, Superseded(*artifact));
  resp.cache_hit = info.cache_hit;
  resp.dedup_hit = info.dedup_hit;
  if (!cached.ok()) return cached.status();
  resp.delta_patched = (*cached)->delta_patched && !resp.cache_hit;
  resp.monomial_loss = (*cached)->loss.monomial_loss;
  resp.variable_loss = (*cached)->loss.variable_loss;
  resp.adequate = (*cached)->adequate;
  resp.vvs = (*cached)->vvs_names;
  // |P↓S|_M = |P|_M − ML (the paper's monomial loss), so no view is needed.
  resp.compressed_monomials =
      artifact->polys.SizeM() - (*cached)->loss.monomial_loss;
  if (!with_view || (*cached)->view_built) return cached;
  return store_.GetOrBuildView(
      key, *cached,
      [&](const ArtifactStore::CompressedResult& entry) {
        return BuildView(*artifact, *forest, entry);
      });
}

template <typename Request>
StatusOr<std::shared_ptr<const PolynomialSet>>
ProvenanceService::ResolveTarget(
    const std::shared_ptr<const Artifact>& artifact, const Request& req,
    Response& resp) {
  if (!req.compressed) {
    return std::shared_ptr<const PolynomialSet>(artifact, &artifact->polys);
  }
  PROVABS_ASSIGN_OR_RETURN(
      std::shared_ptr<const ArtifactStore::CompressedResult> result,
      CompressInternal(artifact, req.artifact, req.forest, req.algo,
                       req.bound, resp, /*with_view=*/true));
  return std::shared_ptr<const PolynomialSet>(result, &result->compressed);
}

Response ProvenanceService::Compress(const CompressRequest& req) {
  return Respond(MessageKind::kCompressRequest, [&](Response& resp) {
    std::shared_ptr<const Artifact> artifact = store_.Get(req.artifact);
    if (artifact == nullptr) return NotLoaded(req.artifact);
    return CompressInternal(artifact, req.artifact, req.forest, req.algo,
                            req.bound, resp, /*with_view=*/false)
        .status();
  });
}

Response ProvenanceService::Evaluate(const EvaluateRequest& req) {
  return Respond(MessageKind::kEvaluateRequest, [&](Response& resp) -> Status {
    std::shared_ptr<const Artifact> artifact = store_.Get(req.artifact);
    if (artifact == nullptr) return NotLoaded(req.artifact);
    PROVABS_ASSIGN_OR_RETURN(std::shared_ptr<const PolynomialSet> target,
                             ResolveTarget(artifact, req, resp));

    // Assignments are validated against the polynomials actually being
    // evaluated: setting a variable the compression abstracted away would
    // silently have no effect, and a silently wrong what-if answer is worse
    // than an error (the offline CLI rejects it the same way, because a
    // compressed artifact's buffer only carries surviving variables). The
    // compiled form's slot index answers each name in O(1).
    Valuation val;
    std::shared_ptr<const CompiledPolynomialSet> compiled =
        target->Compiled();
    for (const auto& [name, value] : req.assignments) {
      VariableId id = artifact->vars->Find(name);
      if (id == kInvalidVariable ||
          compiled->SlotOf(id) == CompiledPolynomialSet::kNoSlot) {
        return Status::NotFound(
            req.compressed ? "variable '" + name +
                                 "' does not occur in the compressed view "
                                 "(set its surviving meta-variable instead)"
                           : "unknown variable '" + name + "'");
      }
      val.Set(id, value);
    }
    PROVABS_RETURN_IF_ERROR(CheckBackend(req.eval_backend));
    PROVABS_ASSIGN_OR_RETURN(
        resp.values,
        batcher_.Evaluate(std::move(target), std::move(val),
                          req.eval_backend, &resp.eval_backend));
    return Status::OK();
  });
}

Response ProvenanceService::EvaluateScenarioProgram(
    const EvaluateScenarioProgramRequest& req) {
  return Respond(MessageKind::kEvaluateScenarioProgramRequest,
                 [&](Response& resp) -> Status {
    std::shared_ptr<const Artifact> artifact = store_.Get(req.artifact);
    if (artifact == nullptr) return NotLoaded(req.artifact);
    if (req.shape == ScenarioShape::kTopK && req.top_k == 0) {
      return Status::InvalidArgument(
          "top_k must be at least 1 for the top-k shape");
    }
    PROVABS_RETURN_IF_ERROR(CheckBackend(req.eval_backend));
    PROVABS_ASSIGN_OR_RETURN(std::shared_ptr<const PolynomialSet> target,
                             ResolveTarget(artifact, req, resp));

    ArtifactStore::ProgramKey key;
    key.artifact = req.artifact;
    key.generation = artifact->generation;
    key.compressed = req.compressed;
    if (req.compressed) {
      key.forest = req.forest;
      key.bound = req.bound;
      key.algo = req.algo;
    }
    key.source_hash = ArtifactStore::HashProgramSource(req.program);
    std::shared_ptr<const scenario::ScenarioProgram> program =
        store_.LookupProgram(key);
    resp.program_cache_hit = program != nullptr;
    if (program == nullptr) {
      PROVABS_ASSIGN_OR_RETURN(
          scenario::ScenarioProgram compiled_program,
          scenario::ScenarioProgram::Compile(req.program, target->Compiled(),
                                             *artifact->vars));
      program = store_.InsertProgram(key, std::move(compiled_program));
    }
    const uint64_t total = program->scenario_count();
    if (total > max_scenarios_per_request_) {
      return Status::InvalidArgument(
          "scenario program expands to " + std::to_string(total) +
          " scenarios, over the server limit of " +
          std::to_string(max_scenarios_per_request_));
    }
    resp.scenario_count = total;

    // Evaluation runs against the compiled snapshot the program was
    // analyzed with (program->compiled(), not target->Compiled()): a cached
    // program whose compressed result was evicted and recomputed since
    // keeps its own snapshot alive, and its materialized valuations carry
    // that snapshot's fingerprint. Both snapshots evaluate to identical
    // values — the compression key is identical and the DP is deterministic
    // — so this is purely a lifetime/fingerprint concern, never a semantic
    // one.
    const std::shared_ptr<const CompiledPolynomialSet>& compiled =
        program->compiled();

    // Shaped responses keep the current best `keep` scenarios (values
    // included) while streaming chunks, ordered by objective with ties
    // broken toward the earlier expansion index so every backend and chunk
    // size selects the same scenarios.
    struct Pick {
      uint64_t index;
      double objective;
      std::vector<double> values;
    };
    const bool shaped = req.shape != ScenarioShape::kValues;
    const uint64_t keep = req.shape == ScenarioShape::kTopK ? req.top_k : 1;
    auto better = [&req](const Pick& a, const Pick& b) {
      if (a.objective != b.objective) {
        return req.shape == ScenarioShape::kArgmin
                   ? a.objective < b.objective
                   : a.objective > b.objective;
      }
      return a.index < b.index;
    };
    std::vector<Pick> picks;
    if (!shaped) {
      // A values-shaped response carries total * poly_count doubles (8
      // bytes each on the wire). Refuse up front when that cannot fit in
      // one response frame — computing a gigabyte of valuations only to die
      // in WriteFrame would waste the work and kill the connection.
      const uint64_t value_bytes =
          total * static_cast<uint64_t>(compiled->poly_count()) * 8;
      constexpr uint64_t kEnvelopeSlack = 4096;  // header, stats, varints
      if (value_bytes > max_response_bytes_ ||
          value_bytes + kEnvelopeSlack > max_response_bytes_) {
        return Status::OutOfRange(
            "values-shaped response would be about " +
            std::to_string(value_bytes) + " bytes, over the " +
            std::to_string(max_response_bytes_) +
            "-byte response limit; use --shape top-k to request only the "
            "best scenarios");
      }
      resp.values.reserve(static_cast<size_t>(total) *
                          compiled->poly_count());
    }

    for (uint64_t begin = 0; begin < total; begin += scenario_chunk_) {
      const uint64_t end = std::min(total, begin + scenario_chunk_);
      std::vector<DenseValuation> chunk;
      PROVABS_RETURN_IF_ERROR(program->ExpandChunk(begin, end, &chunk));
      PROVABS_ASSIGN_OR_RETURN(
          std::vector<std::vector<double>> values,
          batcher_.EvaluateDense(target, compiled, std::move(chunk),
                                 req.eval_backend, &resp.eval_backend));
      if (!shaped) {
        for (const std::vector<double>& v : values) {
          resp.values.insert(resp.values.end(), v.begin(), v.end());
        }
        continue;
      }
      for (size_t i = 0; i < values.size(); ++i) {
        // The objective folds polynomial values left to right, matching
        // the order clients would sum a kValues response in.
        double objective = 0.0;
        for (double v : values[i]) objective += v;
        picks.push_back(Pick{begin + i, objective, std::move(values[i])});
      }
      if (picks.size() > keep) {
        std::sort(picks.begin(), picks.end(), better);
        picks.resize(static_cast<size_t>(keep));
      }
    }
    if (shaped) {
      std::sort(picks.begin(), picks.end(), better);
      for (Pick& pick : picks) {
        resp.scenario_indices.push_back(pick.index);
        resp.objectives.push_back(pick.objective);
        resp.values.insert(resp.values.end(), pick.values.begin(),
                           pick.values.end());
      }
    }
    return Status::OK();
  });
}

Response ProvenanceService::Info(const InfoRequest& req) {
  return Respond(MessageKind::kInfoRequest, [&](Response& resp) {
    if (req.artifact.empty()) return Status::OK();
    std::shared_ptr<const Artifact> artifact = store_.Get(req.artifact);
    if (artifact == nullptr) return NotLoaded(req.artifact);
    SetShape(resp, *artifact);
    return Status::OK();
  });
}

Response ProvenanceService::Tradeoff(const TradeoffRequest& req) {
  return Respond(MessageKind::kTradeoffRequest, [&](Response& resp) -> Status {
    std::shared_ptr<const Artifact> artifact = store_.Get(req.artifact);
    if (artifact == nullptr) return NotLoaded(req.artifact);
    const AbstractionForest* forest = artifact->FindForest(req.forest);
    if (forest == nullptr) return NoForest(req.artifact, req.forest);
    // The curve is the root array of the generation's "opt" state at clamp
    // |P|_M, the same entry compress requests re-query.
    const ArtifactStore::ResultKey key{req.artifact, artifact->generation,
                                       req.forest, 0, "opt"};
    PROVABS_ASSIGN_OR_RETURN(
        ArtifactStore::DpState state,
        StateFor(artifact, *forest, key,
                 static_cast<uint32_t>(artifact->polys.SizeM()), nullptr));
    resp.points = internal::TradeoffCurveFromState(*state, *forest);
    return Status::OK();
  });
}

Response ProvenanceService::ListAlgos(const ListAlgosRequest&) {
  return Respond(MessageKind::kListAlgosRequest, [](Response& resp) {
    for (const CompressorInfo& info : CompressorRegistry::Default().Infos()) {
      AlgoCapability a;
      a.name = info.name;
      a.summary = info.summary;
      a.deterministic = info.deterministic;
      a.supports_tradeoff = info.supports_tradeoff;
      a.exact = info.exact;
      a.produces_cut = info.produces_cut;
      a.supports_time_budget = info.supports_time_budget;
      resp.algos.push_back(std::move(a));
    }
    return Status::OK();
  });
}

Response ProvenanceService::ListBackends(const ListBackendsRequest&) {
  return Respond(MessageKind::kListBackendsRequest, [](Response& resp) {
    for (const EvaluationBackendInfo& info :
         EvaluationBackendRegistry::Default().Infos()) {
      EvalBackendCapability b;
      b.name = info.name;
      b.summary = info.summary;
      b.vectorized = info.vectorized;
      b.deterministic = info.deterministic;
      b.preferred_batch = info.preferred_batch;
      resp.backends.push_back(std::move(b));
    }
    return Status::OK();
  });
}

Response ProvenanceService::Shutdown(const ShutdownRequest&) {
  return Respond(MessageKind::kShutdownRequest,
                 [](Response&) { return Status::OK(); });
}

std::string ProvenanceService::HandleFrame(std::string_view payload,
                                           bool* shutdown) {
  std::string encoded = HandleFrameImpl(payload, shutdown);
  if (encoded.size() <= max_response_bytes_ &&
      encoded.size() <= kMaxFrameBytes) {
    return encoded;
  }
  // Backstop for any handler whose response outgrew the frame budget:
  // the client gets a structured error on a healthy connection instead of
  // the transport killing the write (and with it the connection).
  Response err;
  StatusOr<MessageKind> kind = PeekMessageKind(payload);
  if (kind.ok()) err.request_kind = *kind;
  SetError(err, Status::OutOfRange(
                    "encoded response of " + std::to_string(encoded.size()) +
                    " bytes exceeds the " +
                    std::to_string(std::min<uint64_t>(max_response_bytes_,
                                                      kMaxFrameBytes)) +
                    "-byte response limit; narrow the request (for scenario "
                    "sweeps, use --shape top-k)"));
  AttachStats(err);
  return EncodeResponse(err);
}

std::string ProvenanceService::HandleFrameImpl(std::string_view payload,
                                               bool* shutdown) {
  Response resp;
  StatusOr<MessageKind> kind = PeekMessageKind(payload);
  if (!kind.ok()) {
    SetError(resp, kind.status());
    return EncodeResponse(resp);
  }
  if (*kind == MessageKind::kResponse) {
    SetError(resp, Status::InvalidArgument(
                       "a response message is not a valid request"));
    return EncodeResponse(resp);
  }
  // On a decode failure the decoder's Status is forwarded to the client —
  // "corrupt element count" vs "buffer truncated" matters when debugging
  // version skew or a mangled frame.
  auto serve = [&](auto decode, auto handler) {
    auto req = decode(payload);
    if (req.ok()) {
      resp = (this->*handler)(*req);
      return;
    }
    resp.request_kind = *kind;
    SetError(resp, Status::InvalidArgument("malformed request payload: " +
                                           req.status().ToString()));
  };
#define PROVABS_SERVE(byte, name)                           \
  if (*kind == MessageKind::k##name##Request) {             \
    serve(Decode##name##Request, &ProvenanceService::name); \
  }
  PROVABS_WIRE_REQUESTS(PROVABS_SERVE)
#undef PROVABS_SERVE
  if (shutdown != nullptr && *kind == MessageKind::kShutdownRequest &&
      resp.ok()) {
    *shutdown = true;
  }
  return EncodeResponse(resp);
}

}  // namespace provabs
