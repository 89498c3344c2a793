#ifndef PROVABS_SERVER_ARTIFACT_STORE_H_
#define PROVABS_SERVER_ARTIFACT_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "abstraction/abstraction_forest.h"
#include "abstraction/loss.h"
#include "algo/compressor.h"
#include "common/statusor.h"
#include "core/polynomial_set.h"
#include "core/variable.h"
#include "scenario/program.h"
#include "server/inflight_registry.h"

namespace provabs {

/// A named, immutable-after-load provenance artifact resident in the server:
/// the deserialized polynomial set, the abstraction forests defined over it,
/// and the VariableTable both share (compression requires polynomials and
/// forest to agree on ids). A forest-only load rebuilds the bundle into a
/// fresh table by serializing the current polynomials and forests, so no
/// raw buffer is kept beside them.
///
/// Artifacts are exposed as `shared_ptr<const Artifact>`: once handed out
/// they are never mutated, so concurrent request threads may read them
/// without locks, and LRU eviction cannot invalidate an in-flight request.
/// `polys` carries its compiled CSR evaluation form (warmed at load by the
/// byte estimator below), so evaluate requests go straight to flat-array
/// walks; reloading produces a fresh Artifact and therefore a fresh
/// compiled form — generation-keyed invalidation for free.
struct Artifact {
  /// Monotonic store-wide load counter; cached compression results embed it
  /// in their key, so reloading an artifact implicitly invalidates them.
  uint64_t generation = 0;
  std::shared_ptr<VariableTable> vars;
  PolynomialSet polys;
  std::map<std::string, AbstractionForest> forests;
  size_t approx_bytes = 0;

  /// One predecessor generation this artifact's polynomials grew from by
  /// appends alone: the generation number and the polys.revision() snapshot
  /// it corresponds to, so `polys.DeltaSince(revision)` reconstructs the
  /// exact update between the two versions.
  struct Ancestor {
    uint64_t generation = 0;
    uint64_t revision = 0;
  };
  /// Patchable predecessors, oldest first (recorded by Append; empty after
  /// a full (re)load, which severs the chain). Bounded by kMaxAncestry:
  /// every compress walks the chain looking for a cached ancestor, every
  /// publish drops the chain's entries, and an ancestor further back would
  /// hand its patch a longer delta to fold in.
  std::vector<Ancestor> ancestry;
  static constexpr size_t kMaxAncestry = 8;

  /// nullptr when no forest of that name was loaded.
  const AbstractionForest* FindForest(const std::string& name) const {
    auto it = forests.find(name);
    return it == forests.end() ? nullptr : &it->second;
  }
};

/// Rough resident-size estimate of a deserialized polynomial set, used for
/// byte-budget accounting (exact heap accounting is not worth the
/// bookkeeping; the estimate is within a small constant of malloc reality).
/// Includes — and warms — the set's compiled CSR evaluation form
/// (core/compiled_polynomial_set.h): both artifact loads and compressed-
/// result inserts pass through this estimator, so every cached set is
/// compiled before it is ever served and evaluate requests never compile.
/// The compiled form is keyed by the artifact's lifetime itself (it lives
/// inside the cached set), so generation bumps and LRU eviction invalidate
/// it together with the entry whose budget it was charged to.
size_t ApproxPolynomialSetBytes(const PolynomialSet& polys);

/// Byte-budgeted LRU cache over deserialized artifacts (keyed by name),
/// compression results (keyed by artifact generation + forest + bound +
/// algo), the "opt" DP states those results are queried from (keyed by
/// artifact generation + forest) and compiled scenario programs. Repeat
/// loads skip deserialization; repeat compressions skip the DP entirely,
/// and so do compressions at a new bound on a generation whose DP state is
/// cached — the heart of the paper's "compress once, evaluate
/// interactively" deployment story.
///
/// All entries share one recency list and one byte budget under one mutex.
/// An insert evicts least-recently-used entries until the store fits its
/// budget again; the most recent entry is never evicted, so a budget
/// smaller than one artifact still serves that artifact (it just caches
/// nothing else). The lock covers only map and list bookkeeping: values
/// are built before an insert takes it and destroyed after an erase
/// releases it. All methods are thread-safe.
///
/// On top of the cache sits a single-flight layer (`GetOrCompute`,
/// `GetOrBuildView`, `GetOrComputeState`): the first request for an
/// uncached key runs the compute function, concurrent identical requests
/// wait for that run's outcome, and only *completed* values are ever
/// published to the cache — a failed computation returns its Status to
/// everyone waiting and leaves no trace.
class ArtifactStore {
 public:
  explicit ArtifactStore(size_t byte_budget);

  ArtifactStore(const ArtifactStore&) = delete;
  ArtifactStore& operator=(const ArtifactStore&) = delete;

  /// Deserializes and installs artifact `name`, replacing any previous
  /// version. `forests` pairs forest names with serialized forest buffers.
  /// When `polys_bytes` is empty, the artifact must already exist: its
  /// current polynomials (appends included) and previously loaded forests
  /// are rebuilt into a fresh VariableTable and the new forests merged in.
  StatusOr<std::shared_ptr<const Artifact>> Load(
      const std::string& name, std::string polys_bytes,
      const std::vector<std::pair<std::string, std::string>>& forests);

  /// Appends the polynomials of a serialized PolynomialSet buffer to the
  /// loaded artifact `name`, producing (and installing) a NEW immutable
  /// Artifact at a bumped generation whose revision and ancestry record
  /// the update — so a later compression of the new generation can patch a
  /// cached predecessor's DP state instead of re-running (see
  /// ProvenanceService::CompressInternal). The previous Artifact object is
  /// untouched; in-flight requests holding it are unaffected. Apart from
  /// copying the set and re-interning the variable table, the cost is the
  /// delta's: forests are copied, not re-deserialized, and the compiled
  /// form grows by the appended polynomials instead of recompiling.
  StatusOr<std::shared_ptr<const Artifact>> Append(
      const std::string& name, const std::string& polys_bytes);

  /// Fetches a loaded artifact (refreshing its recency), or nullptr.
  std::shared_ptr<const Artifact> Get(const std::string& name);

  /// Identity of one compression run; `generation` ties the entry to the
  /// artifact version it was computed from.
  struct ResultKey {
    std::string artifact;
    uint64_t generation = 0;
    std::string forest;
    uint64_t bound = 0;
    std::string algo;
  };

  /// A cached compression: the loss report and cut, plus the compressed
  /// polynomial set once a read has needed it. A compress builds no view:
  /// the first evaluate or scenario request over the result builds it and
  /// republishes the entry under the same key, so later reads skip both
  /// the algorithm run and the substitution. `algo` in the key names any
  /// registered compressor, so caching and single-flight dedup compose
  /// identically for all of them — including the exponential "brute" and
  /// "prox", where skipping a repeat run matters most.
  struct CompressedResult {
    LossReport loss;
    bool adequate = false;
    std::string vvs_names;
    /// The view P↓S; empty until `view_built`.
    PolynomialSet compressed;
    bool view_built = false;
    /// Until the view is built: a predecessor generation's view under the
    /// same cut, which the build grows by Apply of the polynomials
    /// appended since, or null when there is none.
    std::shared_ptr<const PolynomialSet> view_base;
    /// A predecessor generation's result exists but chose another cut.
    bool cut_changed = false;
    /// Estimated bytes of the view this entry holds or keeps alive.
    size_t view_bytes = 0;
    size_t approx_bytes = 0;
    /// The algorithm-layer result this entry was built from, retained in
    /// memory only, to build the view from. Its dp_state is always null:
    /// the "opt" tables live in their own state entry (StateKey).
    CompressionResult algo_result;
    /// True when this entry's fill patched a predecessor generation's DP
    /// state.
    bool delta_patched = false;
  };

  /// Cache lookup; counts a hit or miss. nullptr on miss.
  std::shared_ptr<const CompressedResult> LookupResult(const ResultKey& key);

  /// Cache lookup that records neither a hit nor a miss — the delta-patch
  /// path probes ancestor generations with it, and a probe is telemetry
  /// about the PATCH path, not about serving (the new generation's own
  /// miss was already counted). Still refreshes recency.
  std::shared_ptr<const CompressedResult> PeekResult(const ResultKey& key);

  /// Inserts a computed result (last-writer-wins on racing identical keys)
  /// and returns the cached object, so the caller shares the allocation
  /// instead of copying the compressed polynomial set.
  std::shared_ptr<const CompressedResult> InsertResult(
      const ResultKey& key, CompressedResult result);

  /// Produces the result to publish for an uncached key. Runs on the
  /// calling thread with no store or registry lock held.
  using ResultComputeFn = std::function<StatusOr<CompressedResult>()>;

  /// How one GetOrCompute call was answered, for per-response reporting.
  struct GetOrComputeInfo {
    bool cache_hit = false;  ///< Answered from the result cache (no wait).
    bool dedup_hit = false;  ///< Waited on another request's computation.
  };

  /// Single-flight cache fill: returns the cached result for `key` if
  /// present; otherwise the first caller runs `compute` while concurrent
  /// identical callers block on its outcome (distinct keys proceed in
  /// parallel). A successful result is inserted into the cache *before*
  /// being published to waiters; a failure is returned as its Status to the
  /// leader and every waiter, and is never cached — the next non-concurrent
  /// request retries from scratch.
  ///
  /// Publishing also erases the results cached for `superseded`
  /// generations under the same artifact, forest, bound and algo: the
  /// artifact's ancestry, whose results no request can reach any more
  /// (requests resolve the current artifact, and the patch path probes the
  /// newest cached ancestor first, which is now `key` itself).
  StatusOr<std::shared_ptr<const CompressedResult>> GetOrCompute(
      const ResultKey& key, const ResultComputeFn& compute,
      GetOrComputeInfo* info = nullptr,
      const std::vector<uint64_t>& superseded = {});

  /// Replaces the cached entry for `key`, whose view is not built yet, with
  /// `build(entry)`, single-flight: concurrent readers of one view wait
  /// for the first one's build. Returns the republished entry (or one a
  /// concurrent build already published). `entry` is the caller's copy, in
  /// case the cache evicted it meanwhile.
  using ViewBuildFn =
      std::function<StatusOr<CompressedResult>(const CompressedResult&)>;
  StatusOr<std::shared_ptr<const CompressedResult>> GetOrBuildView(
      const ResultKey& key, std::shared_ptr<const CompressedResult> entry,
      const ViewBuildFn& build);

  /// Identity of one generation's retained "opt" DP tables: Algorithm 1's
  /// arrays over (artifact generation, forest), which answer every bound
  /// whose k fits under their clamp. One entry serves every bound.
  struct StateKey {
    std::string artifact;
    uint64_t generation = 0;
    std::string forest;
  };
  using DpState = std::shared_ptr<const internal::RetainedDpState>;

  /// State lookup that counts nothing and refreshes recency; nullptr on
  /// miss.
  DpState PeekState(const StateKey& key);

  /// Produces the state to publish. `narrow` is the cached entry whose
  /// clamp was too small, or null when none is cached.
  using StateComputeFn = std::function<StatusOr<DpState>(const DpState&)>;

  /// Single-flight fill of a state entry whose clamp covers `min_clamp`:
  /// returns the cached state when it does; otherwise the first caller runs
  /// `compute` and publishes its state (replacing a narrower one) while
  /// concurrent callers wait. A caller handed a state still too narrow for
  /// it tries again. Failures are never cached. Publishing erases the
  /// states of `superseded` generations of the same artifact and forest.
  StatusOr<DpState> GetOrComputeState(
      const StateKey& key, uint32_t min_clamp, const StateComputeFn& compute,
      const std::vector<uint64_t>& superseded = {});

  /// Identity of one compiled scenario program: the target view it was
  /// analyzed against (artifact + generation, and for compressed targets
  /// the full compression key) plus a hash of the source text. A reload
  /// bumps the generation and implicitly invalidates cached programs, the
  /// same mechanism ResultKey uses.
  struct ProgramKey {
    std::string artifact;
    uint64_t generation = 0;
    bool compressed = false;
    std::string forest;
    uint64_t bound = 0;
    std::string algo;
    uint64_t source_hash = 0;
  };

  /// FNV-1a 64 of the program source, for ProgramKey::source_hash.
  static uint64_t HashProgramSource(std::string_view source);

  /// Cache lookup for a compiled scenario program; counts a program hit or
  /// miss. nullptr on miss.
  std::shared_ptr<const scenario::ScenarioProgram> LookupProgram(
      const ProgramKey& key);

  /// Caches a compiled program (last-writer-wins on racing identical keys).
  /// Programs share the byte budget and LRU with artifacts and results —
  /// they hold a shared_ptr to their compiled form, so an evicted or
  /// reloaded artifact stays alive for any program still cached against it.
  std::shared_ptr<const scenario::ScenarioProgram> InsertProgram(
      const ProgramKey& key, scenario::ScenarioProgram program);

  struct Stats {
    uint64_t artifact_count = 0;
    uint64_t result_count = 0;
    uint64_t program_count = 0;
    uint64_t state_count = 0;  ///< In-process only; not on the wire.
    uint64_t cached_bytes = 0;
    uint64_t byte_budget = 0;
    uint64_t result_hits = 0;
    uint64_t result_misses = 0;
    uint64_t evictions = 0;
    uint64_t dedup_hits = 0;        ///< Requests served by waiting (total).
    uint64_t inflight_waiters = 0;  ///< Requests blocked right now (gauge).
    uint64_t program_hits = 0;
    uint64_t program_misses = 0;
  };
  Stats stats() const;

  /// Single-flight internals, exposed for tests and the stats block.
  const InflightRegistry& inflight() const { return inflight_; }

 private:
  /// One cached value. A slot key is a tag byte naming the kind ('a'
  /// artifact, 'r' result, 'p' program, 's' state) followed by the encoded
  /// identity, so all four kinds share one map and one recency list; the
  /// tag also says what `value` points to.
  struct Slot {
    Slot(std::shared_ptr<const void> v, size_t b)
        : value(std::move(v)), bytes(b) {}
    std::shared_ptr<const void> value;
    size_t bytes = 0;
    std::list<std::string>::iterator lru_it;
  };
  /// Values an insert replaced, erased or evicted, destroyed only after
  /// the mutex is released.
  using Dropped = std::vector<std::shared_ptr<const void>>;

  static std::string ArtifactSlotKey(const std::string& name);
  static std::string ResultSlotKey(const ResultKey& key);
  static std::string ProgramSlotKey(const ProgramKey& key);
  static std::string StateSlotKey(const StateKey& key);

  /// The per-kind entry count a slot key's tag contributes to.
  std::atomic<uint64_t>& CountFor(const std::string& slot_key);

  /// The one lookup: the value at `slot_key` (refreshing its recency), or
  /// null. `T` is the type the key's tag names. Counts a found key in
  /// `*hits` and a missing one in `*misses` where those are given.
  template <typename T>
  std::shared_ptr<const T> Lookup(const std::string& slot_key,
                                  std::atomic<uint64_t>* hits = nullptr,
                                  std::atomic<uint64_t>* misses = nullptr);

  /// Installs `slot` at `slot_key` (replacing any entry there), erases the
  /// entries at `superseded`, and evicts down to the budget.
  void Publish(const std::string& slot_key, Slot slot,
               const std::vector<std::string>& superseded = {});

  /// The single-flight fill behind the three GetOr* methods. Returns the
  /// value cached at `slot_key` if `accept` takes it. Otherwise claims
  /// `flight_key` and re-checks, then publishes what `make` builds from the
  /// rejected value (null when none is cached) and erases the slot keys
  /// `superseded()` returns. A waiter handed a value it cannot accept goes
  /// round again. With `count_results`, the first lookup counts a result
  /// hit or miss and the re-check only a hit (the caller's miss is already
  /// counted).
  template <typename T, typename AcceptFn, typename MakeFn,
            typename SupersededFn>
  StatusOr<std::shared_ptr<const T>> Fill(
      const std::string& slot_key, const std::string& flight_key,
      bool count_results, const AcceptFn& accept, const MakeFn& make,
      const SupersededFn& superseded, GetOrComputeInfo* info);

  /// Moves `it`'s value into `dropped` and drops the slot with its byte
  /// and count charges. Requires mutex_.
  void EraseSlot(std::unordered_map<std::string, Slot>::iterator it,
                 Dropped& dropped);

  /// Serializes whole Load() cycles (read existing → deserialize → install)
  /// so concurrent loads of one artifact cannot lose each other's forest
  /// merges. Distinct from mutex_ on purpose: deserialization is slow, and
  /// Get/LookupResult traffic must not stall behind it.
  std::mutex load_mutex_;
  /// Guards slots_ and lru_.
  std::mutex mutex_;
  std::list<std::string> lru_;  // front = most recently used slot key
  std::unordered_map<std::string, Slot> slots_;
  const size_t byte_budget_;
  InflightRegistry inflight_;
  // Counters are atomics so that stats(), which runs on every response,
  // reads them without the lock. used_bytes_ changes only under mutex_.
  std::atomic<uint64_t> used_bytes_{0};
  std::atomic<uint64_t> artifact_count_{0};
  std::atomic<uint64_t> result_count_{0};
  std::atomic<uint64_t> next_generation_{1};
  std::atomic<uint64_t> result_hits_{0};
  std::atomic<uint64_t> result_misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> program_count_{0};
  std::atomic<uint64_t> program_hits_{0};
  std::atomic<uint64_t> program_misses_{0};
  std::atomic<uint64_t> state_count_{0};
};

}  // namespace provabs

#endif  // PROVABS_SERVER_ARTIFACT_STORE_H_
