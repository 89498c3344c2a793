#ifndef PROVABS_SERVEBENCH_SERVE_WORKLOADS_H_
#define PROVABS_SERVEBENCH_SERVE_WORKLOADS_H_

/// The four traffic mixes bench_serve drives, each with the data it loads,
/// the seeded request stream it sends, and the in-process reference its
/// answers are checked against. Why each mix exists is stated on its class.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "algo/optimal_single_tree.h"
#include "bench/bench_util.h"
#include "common/random.h"
#include "core/evaluation_backend.h"
#include "core/valuation.h"
#include "io/serializer.h"
#include "scenario/program.h"
#include "servebench/serve/loadgen.h"

namespace provabs::servebench {

/// Name under which every workload loads its artifact.
inline const char kArtifact[] = "bench";

/// The artifact exactly as the server holds it: the same bytes
/// deserialized in the same order (polynomials, then the forest), so
/// variable ids, canonical monomial order, and therefore every evaluated
/// bit agree with the server's.
struct Reference {
  std::shared_ptr<VariableTable> vars;
  PolynomialSet polys;
  AbstractionForest forest;
};

inline Reference Deserialize(const LoadRequest& load) {
  Reference ref;
  ref.vars = std::make_shared<VariableTable>();
  auto polys = DeserializePolynomialSet(load.polys_bytes, *ref.vars);
  auto forest = DeserializeForest(load.forests.at(0).second, *ref.vars);
  if (!polys.ok() || !forest.ok()) {
    std::fprintf(stderr, "bench_serve: reference deserialization failed\n");
    std::exit(1);
  }
  ref.polys = std::move(*polys);
  ref.forest = std::move(*forest);
  return ref;
}

/// Every workload compresses with the one registered algorithm whose
/// answer the checks reproduce in-process.
inline CompressionResult MustCompress(const Reference& ref, uint64_t bound) {
  auto r = OptimalSingleTree(ref.polys, ref.forest, 0, bound);
  if (!r.ok()) {
    std::fprintf(stderr, "bench_serve: reference compression failed: %s\n",
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*r);
}

/// Leaves a cut keeps as themselves: appends there take the patch path.
inline std::vector<VariableId> KeptLeaves(const AbstractionForest& forest,
                                          const ValidVariableSet& vvs) {
  std::vector<VariableId> kept;
  for (const NodeRef& ref : vvs.nodes()) {
    const auto& node = forest.tree(ref.tree).node(ref.node);
    if (node.is_leaf()) kept.push_back(node.label);
  }
  return kept;
}

/// Bitwise equality of two value vectors.
inline bool SameBits(const std::vector<double>& a,
                     const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Valuation over `vars` from (name, value) pairs.
inline Valuation MakeValuation(
    const VariableTable& vars,
    const std::vector<std::pair<std::string, double>>& assignments) {
  Valuation val;
  for (const auto& [name, value] : assignments) val.Set(vars.Find(name), value);
  return val;
}

/// Naive per-polynomial evaluation, the reference every answer must equal.
inline std::vector<double> EvaluateNaive(const Valuation& val,
                                         const PolynomialSet& polys) {
  std::vector<double> out;
  out.reserve(polys.count());
  for (const Polynomial& p : polys.polynomials()) out.push_back(val.Evaluate(p));
  return out;
}

/// Sorted names of the variables occurring in `polys`.
inline std::vector<std::string> VariableNames(const PolynomialSet& polys,
                                              const VariableTable& vars) {
  std::vector<std::string> names;
  for (VariableId id : polys.Variables()) names.push_back(vars.NameOf(id));
  std::sort(names.begin(), names.end());
  return names;
}

/// Due times of `n` arrivals in [0, seconds): a Poisson process conditioned
/// on its count, so a step offers exactly rate x seconds requests.
inline std::vector<int64_t> Arrivals(size_t n, double seconds, Rng& rng) {
  std::vector<int64_t> t(n);
  for (int64_t& x : t) x = static_cast<int64_t>(rng.NextDouble() * seconds * 1e9);
  std::sort(t.begin(), t.end());
  return t;
}

/// Runs `fn(i)` for i in [0, n) on up to four threads (the checks run
/// between steps, so they never compete with measured traffic).
template <typename Fn>
void ParallelFor(size_t n, Fn fn) {
  const size_t threads = std::min<size_t>(4, std::max<size_t>(1, n));
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (size_t i = t; i < n; i += threads) fn(i);
    });
  }
  for (std::thread& th : pool) th.join();
}

/// Result of checking one step's sampled answers.
struct Check {
  uint64_t checked = 0;
  uint64_t wrong = 0;
  std::string first_error;

  void Fail(const std::string& what) {
    ++wrong;
    if (first_error.empty()) first_error = what;
  }
};

/// Indices of the requests a step checks: an evenly spaced subset of at
/// least `want` (all when the step is smaller).
inline std::vector<bool> SampleMask(size_t n, size_t want) {
  std::vector<bool> mask(n, false);
  const size_t stride = std::max<size_t>(1, n / std::max<size_t>(1, want));
  for (size_t i = 0; i < n; i += stride) mask[i] = true;
  return mask;
}

class Workload {
 public:
  virtual ~Workload() = default;

  const std::string& name() const { return name_; }
  /// Nominal arrival rate of the stream the SLO is judged on.
  double nominal_rps() const { return nominal_rps_; }
  /// Requests per second of all streams together at the nominal rate.
  virtual double offered_rps() const { return nominal_rps_; }
  /// Ladder steps as multiples of the nominal rate (ascending); step
  /// kNominalStep is the nominal rate itself.
  const std::vector<double>& ladder() const { return ladder_; }
  static constexpr size_t kNominalStep = 1;
  Verb slo_verb() const { return slo_verb_; }
  double slo_p99_ms() const { return slo_p99_ms_; }
  size_t cache_mb() const { return cache_mb_; }
  uint64_t bound() const { return bound_; }
  const LoadRequest& load() const { return load_; }
  const Reference& ref() const { return ref_; }
  /// Polynomial view evaluate-like requests run against (per-layer probes
  /// of the evaluation layers use it).
  virtual const PolynomialSet& view() const { return ref_.polys; }

  /// Builds data, the load request and the references. Not part of the
  /// measured set-up time: it stands for the producer that ships data.
  virtual void Prepare(uint64_t seed) = 0;

  /// Requests that leave a freshly loaded server warm, sent one by one.
  virtual std::vector<std::string> WarmPayloads() = 0;

  /// The next `seconds` of traffic at `scale` times the nominal rates.
  /// Stateful: successive calls continue one request stream.
  virtual std::vector<Planned> Plan(double scale, double seconds) = 0;

  /// Checks the sampled answers of a completed step.
  virtual Check Verify(const std::vector<Planned>& plan,
                       const std::vector<Outcome>& out) = 0;

  /// Extra numbers worth recording about the run (e.g. artifact growth).
  virtual MetricMap Notes() const { return {}; }

 protected:
  /// Generates `data` with a {4,4} tree over its tree leaves, serializes
  /// it into the load request, and deserializes the reference.
  void Install(bench::Workload data, const std::string& tree_prefix,
               double bound_fraction) {
    AbstractionForest forest;
    forest.AddTree(
        BuildUniformTree(*data.vars, data.tree_leaves, {4, 4}, tree_prefix));
    bound_ = bench::FeasibleBound(data.polys, forest, bound_fraction);
    load_.artifact = kArtifact;
    load_.polys_bytes = SerializePolynomialSet(data.polys, *data.vars);
    load_.forests = {{"default", SerializeForest(forest, *data.vars)}};
    ref_ = Deserialize(load_);
  }

  std::string CompressPayload(uint64_t bound) const {
    CompressRequest req;
    req.artifact = kArtifact;
    req.bound = bound;
    return EncodeCompressRequest(req);
  }

  std::string EvaluatePayload(
      std::vector<std::pair<std::string, double>> assignments) const {
    EvaluateRequest req;
    req.artifact = kArtifact;
    req.compressed = true;
    req.bound = bound_;
    req.assignments = std::move(assignments);
    return EncodeEvaluateRequest(req);
  }

  std::string name_;
  double nominal_rps_ = 0;
  std::vector<double> ladder_;
  Verb slo_verb_ = Verb::kEvaluate;
  double slo_p99_ms_ = 0;
  size_t cache_mb_ = 256;
  uint64_t bound_ = 0;
  LoadRequest load_;
  Reference ref_;
  Rng rng_{1};
};

/// The paper's interactive what-if loop: small valuations against a
/// compressed view. Backend work is a few microseconds, so the server,
/// wire, assignment check and batcher dominate.
class EvaluateCompressed : public Workload {
 public:
  EvaluateCompressed() {
    name_ = "evaluate-compressed";
    nominal_rps_ = 6000;
    ladder_ = {0.5, 1, 1.5, 5};
    slo_p99_ms_ = 25;
  }

  const PolynomialSet& view() const override { return view_; }

  void Prepare(uint64_t seed) override {
    rng_ = Rng(seed);
    Install(bench::MakeTpchWorkload(TpchQuery::kQ10, "tpch-q10", 1.0), "EVC_",
            0.5);
    view_ = MustCompress(ref_, bound_).Apply(ref_.forest, ref_.polys);
    names_ = VariableNames(view_, *ref_.vars);
  }

  std::vector<std::string> WarmPayloads() override {
    return {CompressPayload(bound_), EvaluatePayload({{names_[0], 0.9}})};
  }

  std::vector<Planned> Plan(double scale, double seconds) override {
    const size_t n = static_cast<size_t>(nominal_rps_ * scale * seconds + 0.5);
    std::vector<int64_t> due = Arrivals(n, seconds, rng_);
    std::vector<bool> sample = SampleMask(n, 200);
    std::vector<Planned> plan(n);
    assignments_.clear();
    for (size_t i = 0; i < n; ++i) {
      // 2-16 distinct surviving variables, seeded values.
      const size_t k = 2 + rng_.Uniform(15);
      std::vector<std::pair<std::string, double>> a;
      for (size_t j = 0; j < k; ++j) {
        const size_t pick = j + rng_.Uniform(names_.size() - j);
        std::swap(names_[j], names_[pick]);
        a.emplace_back(names_[j], 0.5 + rng_.NextDouble());
      }
      plan[i].offset_ns = due[i];
      plan[i].verb = Verb::kEvaluate;
      plan[i].frame = Frame(EvaluatePayload(a));
      plan[i].sample = sample[i];
      if (sample[i]) {
        plan[i].param = static_cast<uint32_t>(assignments_.size());
        assignments_.push_back(std::move(a));
      }
    }
    return plan;
  }

  Check Verify(const std::vector<Planned>& plan,
               const std::vector<Outcome>& out) override {
    Check check;
    for (size_t i = 0; i < plan.size(); ++i) {
      if (!plan[i].sample || !out[i].ok || !out[i].response) continue;
      ++check.checked;
      std::vector<double> want = EvaluateNaive(
          MakeValuation(*ref_.vars, assignments_[plan[i].param]), view_);
      if (!SameBits(want, out[i].response->values)) {
        check.Fail("evaluate values differ from Valuation::Evaluate");
      }
    }
    return check;
  }

 private:
  PolynomialSet view_;
  std::vector<std::string> names_;
  std::vector<std::vector<std::pair<std::string, double>>> assignments_;
};

/// Scenario families: one request fans out into 16-1024 what-ifs, so
/// expansion, batcher lane groups and backend routing across batch widths
/// dominate, with tiny frames. The 32 program texts repeat, so the
/// program cache is warm after set-up.
class ScenarioSweep : public Workload {
 public:
  static constexpr size_t kPrograms = 32;
  static constexpr uint64_t kTopK = 5;

  ScenarioSweep() {
    name_ = "scenario-sweep";
    slo_verb_ = Verb::kScenario;
    nominal_rps_ = 100;
    ladder_ = {0.5, 1, 1.5, 4.5};
    slo_p99_ms_ = 300;
  }

  /// Family sizes 16/64/256/1024: GRID a (plans) x GRID b (months).
  static size_t FamilySize(size_t program) { return size_t{16} << (2 * (program % 4)); }

  void Prepare(uint64_t seed) override {
    rng_ = Rng(seed);
    Install(bench::MakeTelephonyWorkload(1.0), "SCN_", 0.5);
    Rng text_rng(seed ^ 0x5ce7a210ULL);
    programs_.clear();
    for (size_t p = 0; p < kPrograms; ++p) {
      const size_t side = static_cast<size_t>(
          std::lround(std::sqrt(static_cast<double>(FamilySize(p)))));
      auto grid = [&](size_t count) {
        std::string g = "GRID(";
        for (size_t i = 0; i < count; ++i) {
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%s%.3f", i ? ", " : "",
                        0.5 + text_rng.NextDouble());
          g += buf;
        }
        return g + ")";
      };
      std::string text = "LET a = " + grid(side) + "; LET b = " + grid(side) +
                         "; SET PREFIX(plan) = a; SET PREFIX(m) = IF b > 1 "
                         "THEN b * 0.95 ELSE b;";
      programs_.push_back(std::move(text));
    }
    // The reference answers: each family expanded in-process and
    // evaluated by the naive backend, then shaped to the top k.
    expected_.assign(kPrograms, {});
    const EvaluationBackend* naive = EvaluationBackendRegistry::Default().Find("naive");
    auto compiled = ref_.polys.Compiled();
    ParallelFor(kPrograms, [&](size_t p) {
      auto program = scenario::ScenarioProgram::Compile(programs_[p], compiled,
                                                        *ref_.vars);
      if (!program.ok()) {
        std::fprintf(stderr, "bench_serve: program %zu: %s\n", p,
                     program.status().ToString().c_str());
        std::exit(1);
      }
      std::vector<DenseValuation> family;
      (void)program->ExpandChunk(0, program->scenario_count(), &family);
      const size_t polys = compiled->poly_count();
      std::vector<std::vector<double>> values(family.size(),
                                              std::vector<double>(polys));
      std::vector<const DenseValuation*> in;
      std::vector<double*> outs;
      for (size_t s = 0; s < family.size(); ++s) {
        in.push_back(&family[s]);
        outs.push_back(values[s].data());
      }
      (void)naive->EvaluateBatch(*compiled, 0, polys, in.data(), outs.data(),
                                 family.size());
      std::vector<std::pair<double, uint64_t>> ranked;
      for (size_t s = 0; s < family.size(); ++s) {
        double objective = 0.0;
        for (double v : values[s]) objective += v;
        ranked.emplace_back(objective, s);
      }
      std::sort(ranked.begin(), ranked.end(), [](const auto& x, const auto& y) {
        return x.first != y.first ? x.first > y.first : x.second < y.second;
      });
      ranked.resize(std::min<size_t>(ranked.size(), kTopK));
      expected_[p] = Expected{family.size(), ranked};
    });
  }

  std::vector<std::string> WarmPayloads() override {
    std::vector<std::string> warm;
    for (size_t p = 0; p < kPrograms; ++p) warm.push_back(Payload(p));
    return warm;
  }

  std::vector<Planned> Plan(double scale, double seconds) override {
    const size_t n = static_cast<size_t>(nominal_rps_ * scale * seconds + 0.5);
    std::vector<int64_t> due = Arrivals(n, seconds, rng_);
    std::vector<bool> sample = SampleMask(n, 200);
    std::vector<Planned> plan(n);
    for (size_t i = 0; i < n; ++i) {
      // Small families are common and large ones rare: 50/30/15/5% for
      // 16/64/256/1024 scenarios, a mean of 117 per request.
      const double u = rng_.NextDouble();
      const size_t size_class = u < 0.5 ? 0 : u < 0.8 ? 1 : u < 0.95 ? 2 : 3;
      const size_t p = size_class + 4 * rng_.Uniform(kPrograms / 4);
      plan[i].offset_ns = due[i];
      plan[i].verb = Verb::kScenario;
      plan[i].frame = Frame(Payload(p));
      plan[i].param = static_cast<uint32_t>(p);
      plan[i].sample = sample[i];
    }
    return plan;
  }

  Check Verify(const std::vector<Planned>& plan,
               const std::vector<Outcome>& out) override {
    Check check;
    for (size_t i = 0; i < plan.size(); ++i) {
      if (!plan[i].sample || !out[i].ok || !out[i].response) continue;
      ++check.checked;
      const Response& r = *out[i].response;
      const Expected& want = expected_[plan[i].param];
      bool same = r.scenario_count == want.scenarios &&
                  r.scenario_indices.size() == want.top.size() &&
                  r.objectives.size() == want.top.size();
      for (size_t k = 0; same && k < want.top.size(); ++k) {
        same = r.scenario_indices[k] == want.top[k].second &&
               std::memcmp(&r.objectives[k], &want.top[k].first,
                           sizeof(double)) == 0;
      }
      if (!same) check.Fail("scenario top-k differs from the naive expansion");
    }
    return check;
  }

 private:
  struct Expected {
    uint64_t scenarios = 0;
    std::vector<std::pair<double, uint64_t>> top;  ///< (objective, index)
  };

  std::string Payload(size_t p) const {
    EvaluateScenarioProgramRequest req;
    req.artifact = kArtifact;
    req.program = programs_[p];
    req.shape = ScenarioShape::kTopK;
    req.top_k = kTopK;
    return EncodeEvaluateScenarioProgramRequest(req);
  }

  std::vector<std::string> programs_;
  std::vector<Expected> expected_;
};

/// Cold compression: every request carries a bound no earlier request
/// used, so each runs Algorithm 1, Apply, and a cache insert that evicts.
/// The cache budget is far below what the results need: the working set
/// is larger than the program's cache.
class CompressCold : public Workload {
 public:
  CompressCold() {
    name_ = "compress-cold";
    slo_verb_ = Verb::kCompress;
    nominal_rps_ = 100;
    ladder_ = {0.5, 1, 1.5, 5};
    slo_p99_ms_ = 400;
    // Results average 1.7 MB, so a run's thousands of distinct results
    // exceed this budget many times over, while each of the store's eight
    // shards still holds the 2.5 MB artifact beside several results: a
    // smaller budget lets concurrent inserts evict the artifact itself.
    cache_mb_ = 128;
  }

  void Prepare(uint64_t seed) override {
    rng_ = Rng(seed);
    bench::Workload data = bench::MakeTpchWorkload(TpchQuery::kQ5, "tpch-q5", 4.0);
    AbstractionForest probe;
    probe.AddTree(BuildUniformTree(*data.vars, data.tree_leaves, {4, 4}, "CMP_"));
    lo_ = bench::FeasibleBound(data.polys, probe, 0.75);
    hi_ = bench::FeasibleBound(data.polys, probe, 0.25);
    Install(std::move(data), "CMP_", 0.5);
    bounds_.clear();
    cursor_ = 0;
  }

  std::vector<std::string> WarmPayloads() override {
    // A bound outside the drawn range, so measured requests stay cold.
    return {CompressPayload(hi_ + 1)};
  }

  std::vector<Planned> Plan(double scale, double seconds) override {
    const size_t n = static_cast<size_t>(nominal_rps_ * scale * seconds + 0.5);
    std::vector<int64_t> due = Arrivals(n, seconds, rng_);
    std::vector<bool> sample = SampleMask(n, 200);
    std::vector<Planned> plan(n);
    for (size_t i = 0; i < n; ++i) {
      plan[i].offset_ns = due[i];
      plan[i].verb = Verb::kCompress;
      plan[i].param = static_cast<uint32_t>(NextBound());
      plan[i].frame = Frame(CompressPayload(plan[i].param));
      plan[i].sample = sample[i];
    }
    return plan;
  }

  Check Verify(const std::vector<Planned>& plan,
               const std::vector<Outcome>& out) override {
    std::vector<size_t> todo;
    for (size_t i = 0; i < plan.size(); ++i) {
      if (plan[i].sample && out[i].ok && out[i].response) todo.push_back(i);
    }
    std::vector<char> bad(todo.size(), 0);
    ParallelFor(todo.size(), [&](size_t t) {
      const Response& r = *out[todo[t]].response;
      CompressionResult want = MustCompress(ref_, plan[todo[t]].param);
      bad[t] = r.monomial_loss != want.loss.monomial_loss ||
               r.variable_loss != want.loss.variable_loss ||
               r.adequate != want.adequate ||
               r.vvs != want.Describe(ref_.forest, *ref_.vars);
    });
    Check check;
    check.checked = todo.size();
    for (char b : bad) {
      if (b) check.Fail("compress differs from a cold in-process run");
    }
    return check;
  }

  MetricMap Notes() const override {
    return {{"distinct_bounds", {static_cast<double>(hi_ - lo_ + 1), "count", 1}}};
  }

 private:
  /// Bounds drawn without replacement from [lo, hi]; a new permutation
  /// starts only once all are used, long after their results were evicted.
  uint64_t NextBound() {
    if (cursor_ == bounds_.size()) {
      bounds_.clear();
      for (uint64_t b = lo_; b <= hi_; ++b) bounds_.push_back(b);
      rng_.Shuffle(bounds_);
      cursor_ = 0;
    }
    return bounds_[cursor_++];
  }

  uint64_t lo_ = 0;
  uint64_t hi_ = 0;
  std::vector<uint64_t> bounds_;
  size_t cursor_ = 0;
};

/// Writes beside reads on one store: a writer appends small localized
/// polynomials and recompresses after each, while readers evaluate the
/// compressed view. Every generation bump goes through
/// ArtifactStore::Append, OptimalRecompress or its fallbacks,
/// single-flight, recompilation and jit re-emission.
class AppendMixed : public Workload {
 public:
  static constexpr double kWriterShare = 0.1;  ///< writer pairs per reader

  AppendMixed() {
    name_ = "append-mixed";
    nominal_rps_ = 400;  // readers; the writer adds 40 append+compress pairs
    ladder_ = {0.5, 1, 2.5, 3.5};
    slo_p99_ms_ = 60;
  }

  const PolynomialSet& view() const override { return view_; }

  /// Readers plus an append and a compress per write.
  double offered_rps() const override {
    return nominal_rps_ * (1 + 2 * kWriterShare);
  }

  void Prepare(uint64_t seed) override {
    rng_ = Rng(seed);
    // A loose bound (a quarter of the achievable loss) leaves room for
    // the thousands of unmergeable monomials the writer adds.
    Install(bench::MakeTelephonyWorkload(1.0), "APP_", 0.25);
    base_count_ = ref_.polys.count();
    mirror_ = ref_.polys;
    current_ = MustCompress(ref_, bound_);
    appended_.clear();
    results_.assign(1, Stripped(current_));
    view_ = current_.Apply(ref_.forest, mirror_);
    leaves_ = ref_.forest.tree(0).LeafLabels();
    months_.clear();
    for (size_t m = 1; m <= 12; ++m) months_.push_back("m" + std::to_string(m));
    mirror_errors_ = 0;
    patched_ = 0;
  }

  std::vector<std::string> WarmPayloads() override {
    return {CompressPayload(bound_), EvaluatePayload({{"m1", 0.9}})};
  }

  std::vector<Planned> Plan(double scale, double seconds) override {
    const size_t readers = static_cast<size_t>(nominal_rps_ * scale * seconds + 0.5);
    const size_t writes = static_cast<size_t>(
        nominal_rps_ * kWriterShare * scale * seconds + 0.5);
    std::vector<int64_t> read_due = Arrivals(readers, seconds, rng_);
    std::vector<int64_t> write_due = Arrivals(writes, seconds, rng_);
    std::vector<bool> sample = SampleMask(readers, 200);
    std::vector<Planned> plan;
    plan.reserve(readers + 2 * writes);
    size_t r = 0;
    size_t w = 0;
    assignments_.clear();
    while (r < readers || w < writes) {
      if (w < writes && (r == readers || write_due[w] <= read_due[r])) {
        const uint32_t gen = Append();
        AppendRequest append;
        append.artifact = kArtifact;
        append.polys_bytes =
            SerializePolynomialSet(PolynomialSet({appended_.back()}), *ref_.vars);
        Planned a;
        a.offset_ns = write_due[w];
        a.verb = Verb::kAppend;
        a.route = Route::kWriter;
        a.frame = Frame(EncodeAppendRequest(append));
        a.param = gen;
        a.sample = true;
        Planned c = a;
        c.verb = Verb::kCompress;
        c.frame = Frame(CompressPayload(bound_));
        c.after = static_cast<int32_t>(plan.size());
        plan.push_back(std::move(a));
        plan.push_back(std::move(c));
        ++w;
        continue;
      }
      std::vector<std::pair<std::string, double>> a;
      const size_t k = 1 + rng_.Uniform(months_.size());
      for (size_t j = 0; j < k; ++j) {
        const size_t pick = j + rng_.Uniform(months_.size() - j);
        std::swap(months_[j], months_[pick]);
        a.emplace_back(months_[j], 0.5 + rng_.NextDouble());
      }
      Planned e;
      e.offset_ns = read_due[r];
      e.verb = Verb::kEvaluate;
      e.route = Route::kReader;
      e.frame = Frame(EvaluatePayload(a));
      e.sample = sample[r];
      if (sample[r]) {
        e.param = static_cast<uint32_t>(assignments_.size());
        assignments_.push_back(std::move(a));
      }
      plan.push_back(std::move(e));
      ++r;
    }
    view_ = current_.Apply(ref_.forest, mirror_);
    return plan;
  }

  Check Verify(const std::vector<Planned>& plan,
               const std::vector<Outcome>& out) override {
    Check check;
    if (mirror_errors_ > 0) {
      check.Fail("patched mirror differs from a cold in-process run");
      mirror_errors_ = 0;
    }
    std::vector<std::pair<size_t, size_t>> reads;  // (generation, request)
    for (size_t i = 0; i < plan.size(); ++i) {
      if (!plan[i].sample || !out[i].ok || !out[i].response) continue;
      const Response& resp = *out[i].response;
      if (plan[i].verb == Verb::kEvaluate) {
        // Each append adds one polynomial, so the answer's length names
        // the generation it was computed on.
        if (resp.values.size() < base_count_ ||
            resp.values.size() - base_count_ >= results_.size()) {
          ++check.checked;
          check.Fail("evaluate answered an unknown generation");
          continue;
        }
        reads.emplace_back(resp.values.size() - base_count_, i);
        continue;
      }
      ++check.checked;
      const CompressionResult& want = results_[plan[i].param];
      if (plan[i].verb == Verb::kAppend) {
        if (resp.poly_count != base_count_ + plan[i].param) {
          check.Fail("append produced an unexpected polynomial count");
        }
      } else if (resp.monomial_loss != want.loss.monomial_loss ||
                 resp.variable_loss != want.loss.variable_loss ||
                 resp.adequate != want.adequate ||
                 resp.vvs != want.Describe(ref_.forest, *ref_.vars)) {
        check.Fail("compress differs from the mirror of the appends");
      }
    }
    // Rebuild the compressed view of each generation a sampled read saw,
    // walking the generations in order.
    std::sort(reads.begin(), reads.end());
    PolynomialSet polys = ref_.polys;
    size_t built = 0;  // generation `polys` is at
    PolynomialSet view;
    size_t view_gen = results_.size();
    for (const auto& [gen, i] : reads) {
      while (built < gen) polys.Add(appended_[built++]);
      if (view_gen != gen) {
        view = results_[gen].Apply(ref_.forest, polys);
        view_gen = gen;
      }
      ++check.checked;
      std::vector<double> want = EvaluateNaive(
          MakeValuation(*ref_.vars, assignments_[plan[i].param]), view);
      if (!SameBits(want, out[i].response->values)) {
        check.Fail("evaluate values differ from the mirror's view");
      }
    }
    return check;
  }

  MetricMap Notes() const override {
    return {
        {"appends", {static_cast<double>(appended_.size()), "count", 1}},
        {"artifact_monomials_end",
         {static_cast<double>(mirror_.SizeM()), "count", 1}},
        {"artifact_monomials_start",
         {static_cast<double>(ref_.polys.SizeM()), "count", 1}},
        {"mirror_patched_ratio",
         {appended_.empty() ? 0.0
                            : static_cast<double>(patched_) /
                                  static_cast<double>(appended_.size()),
          "ratio", appended_.size()}},
    };
  }

 private:
  static CompressionResult Stripped(CompressionResult r) {
    r.dp_state.reset();
    return r;
  }

  /// Appends one localized polynomial to the mirror, recompresses it the
  /// way the server does (patch, else full run), and returns the new
  /// generation's index. 80% of appends land on a leaf the current cut
  /// keeps (patchable), 20% on any leaf (often a crosses_cut fallback).
  uint32_t Append() {
    std::vector<VariableId> kept = KeptLeaves(ref_.forest, current_.vvs);
    const bool local = !kept.empty() && rng_.Bernoulli(0.8);
    const VariableId leaf = local ? kept[rng_.Uniform(kept.size())]
                                  : leaves_[rng_.Uniform(leaves_.size())];
    std::vector<Monomial> terms;
    std::vector<std::string> months = months_;
    for (size_t j = 0; j < 4; ++j) {
      const size_t pick = j + rng_.Uniform(months.size() - j);
      std::swap(months[j], months[pick]);
      const double coefficient =
          static_cast<double>(1000 + rng_.Uniform(9000)) / 100.0;
      terms.emplace_back(coefficient,
                         std::vector<Factor>{{leaf, 1}, {ref_.vars->Find(months[j]), 1}});
    }
    appended_.push_back(Polynomial::FromMonomials(std::move(terms)));
    const uint64_t from = mirror_.revision();
    mirror_.Add(appended_.back());
    RecompressFallback fallback = RecompressFallback::kNone;
    auto patched = OptimalRecompress(mirror_, ref_.forest, current_,
                                     mirror_.DeltaSince(from), bound_, &fallback);
    const bool cold_check = appended_.size() % 16 == 0;
    if (patched.ok()) {
      ++patched_;
      if (cold_check) {
        auto cold = OptimalSingleTree(mirror_, ref_.forest, 0, bound_);
        if (!cold.ok() || !(cold->loss == patched->loss) ||
            cold->Describe(ref_.forest, *ref_.vars) !=
                patched->Describe(ref_.forest, *ref_.vars)) {
          ++mirror_errors_;
        }
      }
      current_ = std::move(*patched);
    } else {
      auto full = OptimalSingleTree(mirror_, ref_.forest, 0, bound_);
      if (!full.ok()) {
        std::fprintf(stderr, "bench_serve: mirror compression failed: %s\n",
                     full.status().ToString().c_str());
        std::exit(1);
      }
      current_ = std::move(*full);
    }
    results_.push_back(Stripped(current_));
    return static_cast<uint32_t>(results_.size() - 1);
  }

  size_t base_count_ = 0;
  PolynomialSet mirror_;
  PolynomialSet view_;  ///< compressed view at the latest generation
  CompressionResult current_;
  std::vector<Polynomial> appended_;        ///< polynomial of generation i+1
  std::vector<CompressionResult> results_;  ///< per generation, no DP state
  std::vector<VariableId> leaves_;
  std::vector<std::string> months_;
  std::vector<std::vector<std::pair<std::string, double>>> assignments_;
  uint64_t mirror_errors_ = 0;
  uint64_t patched_ = 0;
};

inline std::vector<std::unique_ptr<Workload>> AllWorkloads() {
  std::vector<std::unique_ptr<Workload>> all;
  all.push_back(std::make_unique<EvaluateCompressed>());
  all.push_back(std::make_unique<ScenarioSweep>());
  all.push_back(std::make_unique<CompressCold>());
  all.push_back(std::make_unique<AppendMixed>());
  return all;
}

}  // namespace provabs::servebench

#endif  // PROVABS_SERVEBENCH_SERVE_WORKLOADS_H_
