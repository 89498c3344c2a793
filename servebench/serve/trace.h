#ifndef PROVABS_SERVEBENCH_SERVE_TRACE_H_
#define PROVABS_SERVEBENCH_SERVE_TRACE_H_

/// The traced run: per-layer timings from spans recorded around the calls
/// into each layer, all from the benchmark's own code.
///
/// A workload's first ~500 requests are replayed twice, serially: once
/// against the spawned server (client round trips) and once in-process
/// against a ProvenanceService loaded the same way. In-process, each
/// request is a root span ("request", trace id = request index) whose
/// children are wire.decode, service.<verb> and wire.encode. A sibling
/// root span "probe" with the same trace id re-times the inner public
/// calls of that verb with the request's inputs; stateful ones (Append,
/// OptimalRecompress) run on private copies. Layers the workload's own
/// requests never reach, plus the backend matrix and serialization, are
/// probed once per workload on its artifact (trace id -1). Spans stay in
/// memory and are written as JSON lines at exit.

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "abstraction/loss.h"
#include "algo/optimal_single_tree.h"
#include "core/evaluation_backend.h"
#include "jit/code_cache.h"
#include "jit/jit_backend.h"
#include "server/provenance_service.h"
#include "servebench/serve/workloads.h"

namespace provabs::servebench {

struct Span {
  std::string workload;
  int64_t trace = -1;  ///< request index; -1 = a per-workload layer probe
  int64_t parent = -1; ///< index of the parent span in the log; -1 = root
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Spans of a whole run, kept in memory until Write.
class SpanLog {
 public:
  int64_t Add(Span s) {
    spans_.push_back(std::move(s));
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  Span& at(int64_t i) { return spans_[static_cast<size_t>(i)]; }
  const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per line: workload, trace, span (index), parent,
  /// name, start_us (since the first span) and dur_us.
  void Write(const std::string& path) const {
    std::ofstream out(path);
    const int64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"workload\": " << JsonString(s.workload) << ", \"trace\": " << s.trace
          << ", \"span\": " << i << ", \"parent\": " << s.parent
          << ", \"name\": " << JsonString(s.name)
          << ", \"start_us\": " << JsonNumber(NsToUs(s.start_ns - epoch))
          << ", \"dur_us\": " << JsonNumber(NsToUs(s.end_ns - s.start_ns)) << "}\n";
    }
  }

 private:
  std::vector<Span> spans_;
};

/// Cumulative fallback batches of the registered jit backend.
inline uint64_t JitFallbackBatches() {
  const auto* jit = dynamic_cast<const JitBackend*>(
      EvaluationBackendRegistry::Default().Find("jit"));
  if (jit == nullptr) return 0;
  JitBackend::Stats s = jit->stats();
  return s.fallback_forced + s.fallback_no_exec_mem + s.fallback_emit_failed;
}

class Tracer {
 public:
  /// Requests replayed per workload.
  static constexpr size_t kReplay = 500;
  /// Repetitions of each per-workload layer probe.
  static constexpr int kProbeReps = 5;
  static constexpr size_t kWidths[] = {1, 16, 64, 256, 1024};
  static constexpr const char* kBackends[] = {"naive", "compiled", "simd_batch", "jit"};

  Tracer(Workload& w, SpanLog& log) : w_(w), log_(log) {}

  /// The workload's next ~kReplay requests at the nominal rates.
  std::vector<Planned> Requests() {
    return w_.Plan(1.0, static_cast<double>(kReplay) / w_.offered_rps());
  }

  /// Serial round trips of `replay` against the spawned server.
  bool TimeRoundTrips(Connections& conns, const std::vector<Planned>& replay) {
    rtt_ns_.assign(replay.size(), 0);
    for (size_t i = 0; i < replay.size(); ++i) {
      const int64_t t0 = NowNs();
      auto r = conns.Call(0, replay[i].frame.substr(4));
      rtt_ns_[i] = NowNs() - t0;
      if (!r.ok()) return false;
      if (!r->ok()) ++failed_;
    }
    return true;
  }

  /// The in-process replay with request and probe spans.
  void ReplayInProcess(const std::vector<Planned>& replay) {
    jit_fallbacks_before_ = JitFallbackBatches();
    ServiceOptions options;
    options.cache_bytes = w_.cache_mb() << 20;
    options.eval_threads = 4;
    service_ = std::make_unique<ProvenanceService>(options);
    if (!service_->Load(w_.load()).ok()) ++failed_;
    for (const std::string& payload : w_.WarmPayloads()) {
      service_->HandleFrame(payload, nullptr);
    }
    private_store_ = std::make_unique<ArtifactStore>(size_t{1} << 30);
    (void)private_store_->Load(kArtifact, w_.load().polys_bytes, w_.load().forests);
    chain_ = Deserialize(w_.load());
    chain_result_ = MustCompress(chain_, w_.bound());

    for (size_t i = 0; i < replay.size(); ++i) {
      const std::string payload = replay[i].frame.substr(4);
      const int64_t root = Open(static_cast<int64_t>(i), -1, "request");
      Response resp;
      bool decoded = true;
      std::optional<EvaluateRequest> eval;
      std::optional<EvaluateScenarioProgramRequest> scen;
      std::optional<CompressRequest> comp;
      std::optional<AppendRequest> app;
      const int64_t dec = Open(static_cast<int64_t>(i), root, "wire.decode");
      switch (replay[i].verb) {
        case Verb::kEvaluate: {
          auto r = DecodeEvaluateRequest(payload);
          if ((decoded = r.ok())) eval = std::move(*r);
          break;
        }
        case Verb::kScenario: {
          auto r = DecodeEvaluateScenarioProgramRequest(payload);
          if ((decoded = r.ok())) scen = std::move(*r);
          break;
        }
        case Verb::kCompress: {
          auto r = DecodeCompressRequest(payload);
          if ((decoded = r.ok())) comp = std::move(*r);
          break;
        }
        case Verb::kAppend: {
          auto r = DecodeAppendRequest(payload);
          if ((decoded = r.ok())) app = std::move(*r);
          break;
        }
      }
      Close(dec);
      if (!decoded) {
        Close(root);
        ++failed_;
        continue;
      }
      const int64_t svc = Open(static_cast<int64_t>(i), root,
                               std::string("service.") + VerbName(replay[i].verb));
      if (eval) resp = service_->Evaluate(*eval);
      if (scen) resp = service_->EvaluateScenarioProgram(*scen);
      if (comp) resp = service_->Compress(*comp);
      if (app) resp = service_->Append(*app);
      Close(svc);
      const int64_t enc = Open(static_cast<int64_t>(i), root, "wire.encode");
      std::string encoded = EncodeResponse(resp);
      Close(enc);
      Close(root);
      if (!resp.ok()) ++failed_;
      const int64_t service_ns = Duration(svc);
      if (i < rtt_ns_.size()) transport_us_.push_back(NsToUs(rtt_ns_[i] - Duration(root)));

      const int64_t trace = static_cast<int64_t>(i);
      double inner_ns = -1;  // time of the probed calls on the service's path
      if (eval) inner_ns = ProbeEvaluate(trace, *eval);
      if (scen) inner_ns = ProbeScenario(trace, *scen, resp.program_cache_hit);
      if (comp) inner_ns = ProbeCompress(trace, *comp, resp);
      if (app) inner_ns = ProbeAppend(trace, *app);
      if (inner_ns >= 0) self_us_.push_back(NsToUs(service_ns) - inner_ns * 1e-3);
    }
  }

  /// Probes every layer the replay did not reach, on the workload's own
  /// artifact, plus serialization, compilation, jit emission and the
  /// backend matrix on the workload's evaluated view.
  void ProbeLayers() {
    const Reference& ref = w_.ref();
    const int64_t t = -1;
    std::vector<std::string> view_names = VariableNames(w_.view(), *ref.vars);
    if (!Seen("core.variables")) {
      EvaluateRequest req;
      req.artifact = kArtifact;
      req.compressed = true;
      req.bound = w_.bound();
      for (size_t j = 0; j < std::min<size_t>(4, view_names.size()); ++j) {
        req.assignments.emplace_back(view_names[j], 0.9);
      }
      service_->Compress(CompressRequestFor(w_.bound()));
      for (int r = 0; r < kProbeReps; ++r) ProbeEvaluate(t, req);
    }
    if (!Seen("scenario.compile")) {
      EvaluateScenarioProgramRequest req;
      req.artifact = kArtifact;
      req.program =
          "LET a = GRID(0.8, 0.85, 0.9, 0.95, 1.0, 1.05, 1.1, 1.15); "
          "LET b = GRID(0.9, 0.95, 1.0, 1.05, 1.1, 1.15, 1.2, 1.25); SET * = a * b;";
      req.shape = ScenarioShape::kTopK;
      req.top_k = 5;
      for (int r = 0; r < kProbeReps; ++r) ProbeScenario(t, req, false);
    }
    if (!Seen("algo.opt")) {
      Response none;
      for (int r = 0; r < kProbeReps; ++r) {
        ProbeCompress(t, CompressRequestFor(w_.bound()), none);
      }
    }
    if (!Seen("store.append")) {
      // Localized appends on a leaf the private chain's cut keeps, each
      // pairing the leaf with non-tree variables of the artifact.
      std::vector<VariableId> partners;
      std::set<VariableId> tree_vars;
      for (VariableId v : chain_.forest.tree(0).AllLabels()) tree_vars.insert(v);
      for (const std::string& name : VariableNames(chain_.polys, *chain_.vars)) {
        VariableId id = chain_.vars->Find(name);
        if (tree_vars.count(id) == 0) partners.push_back(id);
      }
      for (int r = 0; r < kProbeReps && partners.size() >= 4; ++r) {
        std::vector<VariableId> kept = KeptLeaves(chain_.forest, chain_result_.vvs);
        VariableId leaf = kept.empty() ? chain_.forest.tree(0).LeafLabels().front()
                                       : kept[static_cast<size_t>(r) % kept.size()];
        std::vector<Monomial> terms;
        for (size_t j = 0; j < 4; ++j) {
          terms.emplace_back(2.5 + static_cast<double>(j),
                             std::vector<Factor>{{leaf, 1}, {partners[(r + j) % partners.size()], 1}});
        }
        AppendRequest req;
        req.artifact = kArtifact;
        req.polys_bytes = SerializePolynomialSet(
            PolynomialSet({Polynomial::FromMonomials(std::move(terms))}), *chain_.vars);
        ProbeAppend(t, req);
      }
    }

    // Serialization and compilation at the workload's size.
    for (int r = 0; r < kProbeReps; ++r) {
      int64_t s = Open(t, -1, "io.serialize");
      std::string bytes = SerializePolynomialSet(ref.polys, *ref.vars);
      Close(s);
      VariableTable vars;
      s = Open(t, -1, "io.deserialize");
      auto back = DeserializePolynomialSet(bytes, vars);
      Close(s);
      if (!back.ok()) ++failed_;
      s = Open(t, -1, "core.compile");
      CompiledPolynomialSet compiled = CompiledPolynomialSet::Compile(w_.view());
      Close(s);
      jit::JitCodeCache cache(size_t{64} << 20);
      s = Open(t, -1, "jit.emit");
      auto module = cache.GetOrEmit(compiled);
      Close(s);
    }
    BackendMatrix(view_names);
    jit_fallbacks_ = JitFallbackBatches() - jit_fallbacks_before_;
  }

  /// Requests that failed during the replays.
  uint64_t failed() const { return failed_; }

  /// Per-layer metrics of this workload, from its spans.
  MetricMap Metrics() const {
    std::map<std::string, std::vector<double>> by_name;
    for (const Span& s : log_.spans()) {
      if (s.workload == w_.name()) by_name[s.name].push_back(NsToUs(s.end_ns - s.start_ns));
    }
    MetricMap m;
    auto us = [&](const std::string& metric, const std::vector<double>& v) {
      m[metric] = {Median(v), "us", v.size()};
    };
    auto span = [&](const std::string& metric, const std::string& name) {
      us(metric, by_name[name]);
    };
    us("server.transport_us", transport_us_);
    span("wire.decode_request_us", "wire.decode");
    span("wire.encode_response_us", "wire.encode");
    std::vector<double> handle;
    for (const char* verb : {"evaluate", "scenario", "compress", "append"}) {
      const auto& v = by_name[std::string("service.") + verb];
      handle.insert(handle.end(), v.begin(), v.end());
    }
    us("service.handle_us", handle);
    us("service.self_us", self_us_);
    span("core.variables_us", "core.variables");
    span("core.materialize_us", "core.materialize");
    span("core.compile_us", "core.compile");
    span("store.get_us", "store.get");
    span("store.lookup_result_us", "store.lookup_result");
    span("store.append_us", "store.append");
    us("batcher.overhead_us", batcher_overhead_us_);
    span("jit.emit_us", "jit.emit");
    m["jit.fallback_batches"] = {static_cast<double>(jit_fallbacks_), "count", 1};
    span("scenario.compile_us", "scenario.compile");
    us("scenario.expand_us_per_scenario", expand_us_per_scenario_);
    span("abstraction.residual_index_us", "abstraction.residual_index");
    span("abstraction.node_loss_sweep_us", "abstraction.node_loss_sweep");
    span("algo.opt_us", "algo.opt");
    us("algo.dp_other_us", dp_other_us_);
    span("algo.apply_us", "algo.apply");
    span("algo.describe_us", "algo.describe");
    span("algo.recompress_us", "algo.recompress");
    span("io.serialize_us", "io.serialize");
    span("io.deserialize_us", "io.deserialize");
    for (RecompressFallback f :
         {RecompressFallback::kNoState, RecompressFallback::kDeltaIncomplete,
          RecompressFallback::kShapeChanged, RecompressFallback::kHeadroomExhausted,
          RecompressFallback::kCrossesCut}) {
      auto it = fallbacks_.find(f);
      m[std::string("algo.recompress_fallback.") + RecompressFallbackName(f)] = {
          it == fallbacks_.end() ? 0.0 : static_cast<double>(it->second), "count", 1};
    }
    for (const auto& [name, v] : backend_) {
      m[name] = {v, name.find("auto_over_best") == std::string::npos ? "us" : "ratio", 1};
    }
    // Every span name's median duration and median self time (its
    // duration minus the part its child spans cover).
    const std::vector<Span>& spans = log_.spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.workload == w_.name() && s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, std::vector<double>> self_by_name;
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].workload != w_.name()) continue;
      self_by_name[spans[i].name].push_back(
          NsToUs(spans[i].end_ns - spans[i].start_ns - child_ns[i]));
    }
    for (const auto& [name, self] : self_by_name) {
      us("span." + name + ".p50_us", by_name[name]);
      us("span." + name + ".self_p50_us", self);
    }
    return m;
  }

 private:
  int64_t Open(int64_t trace, int64_t parent, std::string name) {
    Span s;
    s.workload = w_.name();
    s.trace = trace;
    s.parent = parent;
    s.name = std::move(name);
    s.start_ns = NowNs();
    return log_.Add(std::move(s));
  }
  void Close(int64_t span) { log_.at(span).end_ns = NowNs(); }
  int64_t Duration(int64_t span) { return log_.at(span).end_ns - log_.at(span).start_ns; }

  /// Times `fn` as a child span of `parent`; returns its duration in ns.
  template <typename Fn>
  int64_t Timed(int64_t trace, int64_t parent, const std::string& name, Fn&& fn) {
    const int64_t s = Open(trace, parent, name);
    fn();
    Close(s);
    return Duration(s);
  }

  bool Seen(const std::string& name) const {
    for (const Span& s : log_.spans()) {
      if (s.workload == w_.name() && s.name == name) return true;
    }
    return false;
  }

  CompressRequest CompressRequestFor(uint64_t bound) const {
    CompressRequest req;
    req.artifact = kArtifact;
    req.bound = bound;
    return req;
  }

  /// The view an evaluate-like request reads, as the service resolves it.
  std::shared_ptr<const PolynomialSet> Target(
      int64_t trace, int64_t probe, const std::shared_ptr<const Artifact>& artifact,
      bool compressed, uint64_t bound, int64_t* lookup_ns) {
    if (!compressed) return std::shared_ptr<const PolynomialSet>(artifact, &artifact->polys);
    std::shared_ptr<const ArtifactStore::CompressedResult> result;
    *lookup_ns = Timed(trace, probe, "store.lookup_result", [&] {
      result = service_->store().LookupResult(
          {kArtifact, artifact->generation, "default", bound, "opt"});
    });
    if (result == nullptr) return nullptr;
    return std::shared_ptr<const PolynomialSet>(result, &result->compressed);
  }

  int64_t ProbeEvaluate(int64_t trace, const EvaluateRequest& req) {
    const int64_t probe = Open(trace, -1, "probe");
    std::shared_ptr<const Artifact> artifact;
    int64_t inner = Timed(trace, probe, "store.get",
                          [&] { artifact = service_->store().Get(kArtifact); });
    int64_t lookup = 0;
    auto target = artifact ? Target(trace, probe, artifact, req.compressed, req.bound, &lookup)
                           : nullptr;
    if (target == nullptr) {
      Close(probe);
      return -1;
    }
    inner += lookup;
    inner += Timed(trace, probe, "core.variables", [&] { (void)target->Variables(); });
    Valuation val;
    for (const auto& [name, value] : req.assignments) val.Set(artifact->vars->Find(name), value);
    auto compiled = target->Compiled();
    DenseValuation dense;
    Timed(trace, probe, "core.materialize",
          [&] { dense = compiled->MaterializeValuation(val); });
    std::vector<double> out(compiled->poly_count());
    const int64_t direct = Timed(trace, probe, "backend.direct", [&] {
      auto backend = EvaluationBackendRegistry::Default().ResolveForBatch("", 1);
      const DenseValuation* in = &dense;
      double* o = out.data();
      (void)(*backend)->EvaluateBatch(*compiled, 0, compiled->poly_count(), &in, &o, 1);
    });
    const int64_t batched = Timed(trace, probe, "batcher.evaluate",
                                  [&] { (void)service_->batcher().Evaluate(target, val); });
    batcher_overhead_us_.push_back(NsToUs(batched - direct));
    Close(probe);
    return inner + batched;
  }

  int64_t ProbeScenario(int64_t trace, const EvaluateScenarioProgramRequest& req,
                        bool cache_hit) {
    const int64_t probe = Open(trace, -1, "probe");
    std::shared_ptr<const Artifact> artifact;
    int64_t inner = Timed(trace, probe, "store.get",
                          [&] { artifact = service_->store().Get(kArtifact); });
    int64_t lookup = 0;
    auto target = artifact ? Target(trace, probe, artifact, req.compressed, req.bound, &lookup)
                           : nullptr;
    if (target == nullptr) {
      Close(probe);
      return -1;
    }
    inner += lookup;
    std::optional<scenario::ScenarioProgram> program;
    const int64_t compile = Timed(trace, probe, "scenario.compile", [&] {
      auto p = scenario::ScenarioProgram::Compile(req.program, target->Compiled(),
                                                  *artifact->vars);
      if (p.ok()) program = std::move(*p);
    });
    if (!program) {
      Close(probe);
      ++failed_;
      return -1;
    }
    if (!cache_hit) inner += compile;
    const uint64_t n = program->scenario_count();
    std::vector<DenseValuation> family;
    const int64_t expand =
        Timed(trace, probe, "scenario.expand", [&] { (void)program->ExpandChunk(0, n, &family); });
    expand_us_per_scenario_.push_back(NsToUs(expand) / static_cast<double>(n));
    inner += expand;
    const auto& compiled = program->compiled();
    std::vector<std::vector<double>> values(n, std::vector<double>(compiled->poly_count()));
    std::vector<const DenseValuation*> in;
    std::vector<double*> outs;
    for (size_t s = 0; s < n; ++s) {
      in.push_back(&family[s]);
      outs.push_back(values[s].data());
    }
    const int64_t direct = Timed(trace, probe, "backend.direct", [&] {
      auto backend = EvaluationBackendRegistry::Default().ResolveForBatch("", n);
      (void)(*backend)->EvaluateBatch(*compiled, 0, compiled->poly_count(), in.data(),
                                      outs.data(), n);
    });
    const int64_t batched = Timed(trace, probe, "batcher.evaluate", [&] {
      (void)service_->batcher().EvaluateDense(target, compiled, std::move(family));
    });
    // Only the workload's own families: a probe family would mix sizes.
    if (trace >= 0) batcher_overhead_us_.push_back(NsToUs(batched - direct));
    Close(probe);
    return inner + batched;
  }

  int64_t ProbeCompress(int64_t trace, const CompressRequest& req, const Response& resp) {
    const int64_t probe = Open(trace, -1, "probe");
    std::shared_ptr<const Artifact> artifact;
    int64_t get = Timed(trace, probe, "store.get",
                        [&] { artifact = service_->store().Get(kArtifact); });
    if (artifact == nullptr) {
      Close(probe);
      return -1;
    }
    int64_t lookup = Timed(trace, probe, "store.lookup_result", [&] {
      (void)service_->store().LookupResult(
          {kArtifact, artifact->generation, req.forest, req.bound, req.algo});
    });
    const AbstractionForest& forest = *artifact->FindForest(req.forest);
    const AbstractionTree& tree = forest.tree(0);
    std::optional<LeafResidualIndex> index;
    const int64_t index_ns = Timed(trace, probe, "abstraction.residual_index",
                                   [&] { index.emplace(artifact->polys, tree); });
    const int64_t sweep_ns = Timed(trace, probe, "abstraction.node_loss_sweep", [&] {
      for (NodeIndex v = 0; v < tree.node_count(); ++v) {
        if (!tree.node(v).is_leaf()) (void)index->NodeLoss(v);
      }
    });
    std::optional<CompressionResult> result;
    const int64_t opt = Timed(trace, probe, "algo.opt", [&] {
      auto r = OptimalSingleTree(artifact->polys, forest, 0, req.bound);
      if (r.ok()) result = std::move(*r);
    });
    if (!result) {
      Close(probe);
      ++failed_;
      return -1;
    }
    dp_other_us_.push_back(NsToUs(opt - index_ns - sweep_ns));
    const int64_t apply = Timed(trace, probe, "algo.apply",
                                [&] { (void)result->Apply(forest, artifact->polys); });
    const int64_t describe = Timed(trace, probe, "algo.describe",
                                   [&] { (void)result->Describe(forest, *artifact->vars); });
    Close(probe);
    // Only requests whose path is exactly what was probed get a self time.
    if (resp.cache_hit) return get + lookup;
    if (resp.delta_patched || resp.dedup_hit || !resp.ok()) return -1;
    return get + lookup + opt + apply + describe;
  }

  int64_t ProbeAppend(int64_t trace, const AppendRequest& req) {
    const int64_t probe = Open(trace, -1, "probe");
    const int64_t store = Timed(trace, probe, "store.append", [&] {
      if (!private_store_->Append(kArtifact, req.polys_bytes).ok()) ++failed_;
    });
    // The same append on a private patch chain: time OptimalRecompress
    // against the previous generation and count why it declined.
    auto added = DeserializePolynomialSet(req.polys_bytes, *chain_.vars);
    if (added.ok()) {
      const uint64_t from = chain_.polys.revision();
      for (const Polynomial& p : added->polynomials()) chain_.polys.Add(p);
      RecompressFallback fallback = RecompressFallback::kNone;
      std::optional<CompressionResult> patched;
      Timed(trace, probe, "algo.recompress", [&] {
        auto r = OptimalRecompress(chain_.polys, chain_.forest, chain_result_,
                                   chain_.polys.DeltaSince(from), w_.bound(), &fallback);
        if (r.ok()) patched = std::move(*r);
      });
      if (fallback != RecompressFallback::kNone) ++fallbacks_[fallback];
      if (!patched) {
        auto full = OptimalSingleTree(chain_.polys, chain_.forest, 0, w_.bound());
        if (full.ok()) patched = std::move(*full);
      }
      if (patched) {
        chain_result_ = std::move(*patched);
      } else {
        // Appends outgrew what the bound can absorb (tiny-loss artifacts
        // such as TPC-H Q10): restart the chain from the loaded artifact.
        chain_ = Deserialize(w_.load());
        chain_result_ = MustCompress(chain_, w_.bound());
      }
    }
    Close(probe);
    return store;
  }

  /// Median time per scenario of every backend at every batch width on the
  /// workload's view, and how close auto routing comes to the fastest.
  void BackendMatrix(const std::vector<std::string>& names) {
    const EvaluationBackendRegistry& registry = EvaluationBackendRegistry::Default();
    auto compiled = w_.view().Compiled();
    Rng rng(7);
    for (size_t width : kWidths) {
      std::vector<DenseValuation> scenarios;
      for (size_t s = 0; s < width; ++s) {
        Valuation val;
        for (const std::string& name : names) {
          if (rng.Bernoulli(0.25)) val.Set(w_.ref().vars->Find(name), 0.5 + rng.NextDouble());
        }
        scenarios.push_back(compiled->MaterializeValuation(val));
      }
      std::vector<std::vector<double>> values(width,
                                              std::vector<double>(compiled->poly_count()));
      std::vector<const DenseValuation*> in;
      std::vector<double*> outs;
      for (size_t s = 0; s < width; ++s) {
        in.push_back(&scenarios[s]);
        outs.push_back(values[s].data());
      }
      std::map<std::string, double> per_scenario;
      for (const char* name : kBackends) {
        const EvaluationBackend* b = registry.Find(name);
        auto call = [&] {
          (void)b->EvaluateBatch(*compiled, 0, compiled->poly_count(), in.data(),
                                 outs.data(), width);
        };
        call();  // first call emits jit code; not part of the timing
        std::vector<double> reps;
        int64_t total = 0;
        while (reps.size() < 3 || (total < 20'000'000 && reps.size() < 50)) {
          const int64_t t0 = NowNs();
          call();
          const int64_t dt = NowNs() - t0;
          total += dt;
          reps.push_back(NsToUs(dt) / static_cast<double>(width));
        }
        per_scenario[name] = Median(reps);
        backend_["backend." + std::string(name) + ".us_per_scenario.w" +
                    std::to_string(width)] = per_scenario[name];
      }
      auto chosen = registry.ResolveForBatch("", width);
      double best = per_scenario.begin()->second;
      for (const auto& [name, t] : per_scenario) best = std::min(best, t);
      const double picked =
          chosen.ok() ? per_scenario[(*chosen)->info().name] : per_scenario["compiled"];
      backend_["backend.auto_over_best.w" + std::to_string(width)] =
          best > 0 ? picked / best : 0.0;
    }
  }

  Workload& w_;
  SpanLog& log_;
  std::unique_ptr<ProvenanceService> service_;
  std::unique_ptr<ArtifactStore> private_store_;
  Reference chain_;
  CompressionResult chain_result_;
  std::vector<int64_t> rtt_ns_;
  std::vector<double> transport_us_;
  std::vector<double> self_us_;
  std::vector<double> batcher_overhead_us_;
  std::vector<double> expand_us_per_scenario_;
  std::vector<double> dp_other_us_;
  std::map<RecompressFallback, uint64_t> fallbacks_;
  std::map<std::string, double> backend_;  ///< backend matrix results
  uint64_t jit_fallbacks_before_ = 0;
  uint64_t jit_fallbacks_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace provabs::servebench

#endif  // PROVABS_SERVEBENCH_SERVE_TRACE_H_
