#include "server/artifact_store.h"

#include "algo/optimal_single_tree.h"
#include "core/compiled_polynomial_set.h"
#include "io/byte_stream.h"
#include "io/serializer.h"

namespace provabs {

size_t ApproxPolynomialSetBytes(const PolynomialSet& polys) {
  // Monomial lists a set shares with other generations are charged to
  // every holder, so the estimate errs high.
  size_t bytes = sizeof(PolynomialSet);
  for (const Polynomial& p : polys.polynomials()) {
    bytes += 64;  // Polynomial object + vector headers.
    for (const Monomial& m : p.monomials()) {
      bytes += 48 + m.factors().size() * sizeof(Factor);
    }
  }
  // Every cached set is served to evaluate requests through its compiled
  // CSR form, which lives inside the set (lazy cache) and is evicted and
  // invalidated with it — so its bytes belong to the same budget entry.
  // Calling Compiled() here also WARMS the form: anything whose bytes the
  // store accounts is compile-free on the request path by construction.
  bytes += polys.Compiled()->ApproxBytes();
  return bytes;
}

namespace {

size_t ApproxArtifactBytes(const Artifact& artifact) {
  size_t bytes = ApproxPolynomialSetBytes(artifact.polys);
  bytes += artifact.vars->size() * 48;  // interner strings + index entries
  for (const auto& [name, forest] : artifact.forests) {
    bytes += name.size() + forest.TotalNodes() * 64;
  }
  return bytes;
}

/// Rough resident size of retained DP tables, so patchable entries are
/// charged for the state they keep alive (it can rival the compressed set).
size_t ApproxDpStateBytes(const internal::RetainedDpState& state) {
  size_t bytes = sizeof(internal::RetainedDpState);
  bytes += state.leaf_labels.size() * sizeof(VariableId);
  bytes += state.index.TotalKeys() * 12;  // CSR keys + offsets share
  // Per-node arrays are shared across patched generations; charging each
  // entry the full size over-counts aliased tables, which errs toward
  // evicting sooner — acceptable for a rough budget.
  for (const auto& a : state.arrays) {
    bytes += 64 + a->vl.size() * 48;  // two hash maps' nodes
  }
  for (const auto& p : state.prefixes) {
    if (p == nullptr) continue;
    bytes += 32;
    for (const auto& prefix : *p) bytes += 24 + prefix.size() * 16;
  }
  bytes += state.self_loss.size() * sizeof(LossReport);
  return bytes;
}

/// A result's own bytes (loss, cut, names) plus the view it holds or keeps
/// alive; the view estimate, which also warms its compiled form, is taken
/// when the view is built.
size_t ApproxResultBytes(ArtifactStore::CompressedResult& result) {
  if (result.view_built) {
    result.view_bytes = ApproxPolynomialSetBytes(result.compressed);
  }
  return sizeof(ArtifactStore::CompressedResult) + result.vvs_names.size() +
         result.algo_result.vvs.nodes().size() * sizeof(NodeRef) +
         result.algo_result.substitution.size() * 32 + result.view_bytes;
}

/// The slot keys of `key` at each of `generations`.
template <typename Key, typename Encode>
std::vector<std::string> SlotKeysAt(Key key,
                                    const std::vector<uint64_t>& generations,
                                    Encode encode) {
  std::vector<std::string> keys;
  keys.reserve(generations.size());
  for (uint64_t generation : generations) {
    key.generation = generation;
    keys.push_back(encode(key));
  }
  return keys;
}

/// The shared, charged form of a result about to be published.
std::shared_ptr<const ArtifactStore::CompressedResult> ShareResult(
    ArtifactStore::CompressedResult result) {
  auto shared =
      std::make_shared<ArtifactStore::CompressedResult>(std::move(result));
  shared->approx_bytes = ApproxResultBytes(*shared);
  return shared;
}

}  // namespace

ArtifactStore::ArtifactStore(size_t byte_budget) : byte_budget_(byte_budget) {}

std::string ArtifactStore::ArtifactSlotKey(const std::string& name) {
  return "a" + name;
}

std::string ArtifactStore::ResultSlotKey(const ResultKey& key) {
  // Length-prefixed fields make the encoding injective even when names
  // contain arbitrary bytes.
  ByteWriter w;
  w.PutU8('r');
  w.PutString(key.artifact);
  w.PutVarint(key.generation);
  w.PutString(key.forest);
  w.PutVarint(key.bound);
  w.PutString(key.algo);
  return std::move(w).Release();
}

std::string ArtifactStore::ProgramSlotKey(const ProgramKey& key) {
  ByteWriter w;
  w.PutU8('p');
  w.PutString(key.artifact);
  w.PutVarint(key.generation);
  w.PutU8(key.compressed ? 1 : 0);
  w.PutString(key.forest);
  w.PutVarint(key.bound);
  w.PutString(key.algo);
  w.PutVarint(key.source_hash);
  return std::move(w).Release();
}

std::string ArtifactStore::StateSlotKey(const StateKey& key) {
  ByteWriter w;
  w.PutU8('s');
  w.PutString(key.artifact);
  w.PutVarint(key.generation);
  w.PutString(key.forest);
  return std::move(w).Release();
}

uint64_t ArtifactStore::HashProgramSource(std::string_view source) {
  uint64_t hash = 14695981039346656037ull;  // FNV-1a 64
  for (char c : source) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

StatusOr<std::shared_ptr<const Artifact>> ArtifactStore::Load(
    const std::string& name, std::string polys_bytes,
    const std::vector<std::pair<std::string, std::string>>& forests) {
  // One load at a time: the read-merge-install cycle below must not
  // interleave with another load of the same artifact (lost update).
  std::lock_guard<std::mutex> load_lock(load_mutex_);
  // A forest-only load rebuilds the existing artifact's current
  // polynomials and forests into a fresh table.
  std::map<std::string, std::string> forest_bytes;
  if (polys_bytes.empty()) {
    std::shared_ptr<const Artifact> existing = Get(name);
    if (existing == nullptr) {
      return Status::NotFound("artifact '" + name +
                              "' not loaded (a first load needs polynomials)");
    }
    polys_bytes = SerializePolynomialSet(existing->polys, *existing->vars);
    for (const auto& [forest_name, forest] : existing->forests) {
      forest_bytes[forest_name] = SerializeForest(forest, *existing->vars);
    }
  }
  for (const auto& [forest_name, bytes] : forests) {
    forest_bytes[forest_name] = bytes;
  }

  // Deserialization happens outside the store lock: loads are rare but
  // heavy, and must not stall concurrent evaluate traffic.
  auto artifact = std::make_shared<Artifact>();
  artifact->vars = std::make_shared<VariableTable>();
  auto polys = DeserializePolynomialSet(polys_bytes, *artifact->vars);
  if (!polys.ok()) return polys.status();
  artifact->polys = std::move(*polys);
  for (const auto& [forest_name, bytes] : forest_bytes) {
    auto forest = DeserializeForest(bytes, *artifact->vars);
    if (!forest.ok()) return forest.status();
    artifact->forests.emplace(forest_name, std::move(*forest));
  }
  artifact->approx_bytes = ApproxArtifactBytes(*artifact);
  artifact->generation =
      next_generation_.fetch_add(1, std::memory_order_relaxed);
  Publish(ArtifactSlotKey(name), Slot{artifact, artifact->approx_bytes});
  return std::shared_ptr<const Artifact>(artifact);
}

StatusOr<std::shared_ptr<const Artifact>> ArtifactStore::Append(
    const std::string& name, const std::string& polys_bytes) {
  // Serialized against Load for the same reason: read-extend-install of one
  // artifact must not interleave with another writer.
  std::lock_guard<std::mutex> load_lock(load_mutex_);
  if (polys_bytes.empty()) {
    return Status::InvalidArgument("append needs a non-empty polynomial set");
  }
  std::shared_ptr<const Artifact> existing = Get(name);
  if (existing == nullptr) {
    return Status::NotFound("artifact '" + name +
                            "' not loaded (append needs a loaded artifact)");
  }

  // Artifacts are immutable once published, so the append builds a fresh
  // one. The VariableTable is move-only; re-interning the predecessor's
  // names in id order reproduces the exact same dense ids, so the copied
  // polynomials and forests stay consistent with it.
  auto artifact = std::make_shared<Artifact>();
  artifact->vars = std::make_shared<VariableTable>();
  for (VariableId id = 0; id < existing->vars->size(); ++id) {
    artifact->vars->Intern(existing->vars->NameOf(id));
  }
  auto added = DeserializePolynomialSet(polys_bytes, *artifact->vars);
  if (!added.ok()) return added.status();
  // The copy carries the revision and the compiled snapshot, which the
  // Adds leave as a prefix for the byte estimate below to grow.
  artifact->polys = existing->polys;
  for (const Polynomial& p : added->polynomials()) {
    artifact->polys.Add(p);
  }
  artifact->forests = existing->forests;
  artifact->ancestry = existing->ancestry;
  artifact->ancestry.push_back(
      Artifact::Ancestor{existing->generation, existing->polys.revision()});
  if (artifact->ancestry.size() > Artifact::kMaxAncestry) {
    artifact->ancestry.erase(artifact->ancestry.begin());
  }
  artifact->approx_bytes = ApproxArtifactBytes(*artifact);
  artifact->generation =
      next_generation_.fetch_add(1, std::memory_order_relaxed);
  Publish(ArtifactSlotKey(name), Slot{artifact, artifact->approx_bytes});
  return std::shared_ptr<const Artifact>(artifact);
}

template <typename T>
std::shared_ptr<const T> ArtifactStore::Lookup(const std::string& slot_key,
                                               std::atomic<uint64_t>* hits,
                                               std::atomic<uint64_t>* misses) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = slots_.find(slot_key);
  if (it == slots_.end()) {
    if (misses != nullptr) misses->fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  if (hits != nullptr) hits->fetch_add(1, std::memory_order_relaxed);
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  // The aliasing constructor shares ownership without a second copy.
  const std::shared_ptr<const void>& value = it->second.value;
  return std::shared_ptr<const T>(value, static_cast<const T*>(value.get()));
}

std::shared_ptr<const Artifact> ArtifactStore::Get(const std::string& name) {
  return Lookup<Artifact>(ArtifactSlotKey(name));
}

std::shared_ptr<const ArtifactStore::CompressedResult>
ArtifactStore::LookupResult(const ResultKey& key) {
  return Lookup<CompressedResult>(ResultSlotKey(key), &result_hits_,
                                  &result_misses_);
}

std::shared_ptr<const ArtifactStore::CompressedResult>
ArtifactStore::PeekResult(const ResultKey& key) {
  return Lookup<CompressedResult>(ResultSlotKey(key));
}

std::shared_ptr<const ArtifactStore::CompressedResult>
ArtifactStore::InsertResult(const ResultKey& key, CompressedResult result) {
  std::shared_ptr<const CompressedResult> shared =
      ShareResult(std::move(result));
  Publish(ResultSlotKey(key), Slot{shared, shared->approx_bytes});
  return shared;
}

std::shared_ptr<const scenario::ScenarioProgram> ArtifactStore::LookupProgram(
    const ProgramKey& key) {
  return Lookup<scenario::ScenarioProgram>(ProgramSlotKey(key),
                                           &program_hits_, &program_misses_);
}

std::shared_ptr<const scenario::ScenarioProgram> ArtifactStore::InsertProgram(
    const ProgramKey& key, scenario::ScenarioProgram program) {
  auto shared =
      std::make_shared<const scenario::ScenarioProgram>(std::move(program));
  Publish(ProgramSlotKey(key), Slot{shared, shared->ApproxBytes()});
  return shared;
}

template <typename T, typename AcceptFn, typename MakeFn,
          typename SupersededFn>
StatusOr<std::shared_ptr<const T>> ArtifactStore::Fill(
    const std::string& slot_key, const std::string& flight_key,
    bool count_results, const AcceptFn& accept, const MakeFn& make,
    const SupersededFn& superseded, GetOrComputeInfo* info) {
  std::atomic<uint64_t>* hits = count_results ? &result_hits_ : nullptr;
  for (;;) {
    std::shared_ptr<const T> cached =
        Lookup<T>(slot_key, hits, count_results ? &result_misses_ : nullptr);
    if (cached != nullptr && accept(*cached)) {
      if (info != nullptr) info->cache_hit = true;
      return cached;
    }
    bool recheck_hit = false;
    bool deduped = false;
    InflightRegistry::Outcome outcome = inflight_.DoOrWait(
        flight_key,
        [&]() -> InflightRegistry::Outcome {
          // Re-check after claiming the key: a previous leader may have
          // published between the lookup above and the claim.
          std::shared_ptr<const T> again = Lookup<T>(slot_key, hits);
          if (again != nullptr && accept(*again)) {
            recheck_hit = true;
            return {Status::OK(), std::move(again)};
          }
          StatusOr<Slot> made = make(again);
          if (!made.ok()) return {made.status(), nullptr};
          std::shared_ptr<const void> value = made->value;
          Publish(slot_key, std::move(*made), superseded());
          return {Status::OK(), std::move(value)};
        },
        &deduped);
    if (info != nullptr) {
      info->cache_hit = recheck_hit;
      info->dedup_hit = deduped;
    }
    if (!outcome.status.ok()) return outcome.status;
    // A waiter receives whatever the leader needed, which may not be what
    // this caller needs; the next round computes it.
    auto value = std::static_pointer_cast<const T>(outcome.value);
    if (accept(*value)) return value;
  }
}

StatusOr<std::shared_ptr<const ArtifactStore::CompressedResult>>
ArtifactStore::GetOrCompute(const ResultKey& key,
                            const ResultComputeFn& compute,
                            GetOrComputeInfo* info,
                            const std::vector<uint64_t>& superseded) {
  const std::string slot_key = ResultSlotKey(key);
  return Fill<CompressedResult>(
      slot_key, slot_key, /*count_results=*/true,
      [](const CompressedResult&) { return true; },
      [&](const std::shared_ptr<const CompressedResult>&) -> StatusOr<Slot> {
        PROVABS_ASSIGN_OR_RETURN(CompressedResult computed, compute());
        std::shared_ptr<const CompressedResult> shared =
            ShareResult(std::move(computed));
        return Slot{shared, shared->approx_bytes};
      },
      [&] { return SlotKeysAt(key, superseded, ResultSlotKey); }, info);
}

StatusOr<std::shared_ptr<const ArtifactStore::CompressedResult>>
ArtifactStore::GetOrBuildView(const ResultKey& key,
                              std::shared_ptr<const CompressedResult> entry,
                              const ViewBuildFn& build) {
  const std::string slot_key = ResultSlotKey(key);
  std::string flight_key = slot_key;
  flight_key[0] = 'v';  // a view build, not the result's own fill
  return Fill<CompressedResult>(
      slot_key, flight_key, /*count_results=*/false,
      [](const CompressedResult& result) { return result.view_built; },
      [&](const std::shared_ptr<const CompressedResult>& latest)
          -> StatusOr<Slot> {
        PROVABS_ASSIGN_OR_RETURN(CompressedResult built,
                                 build(latest != nullptr ? *latest : *entry));
        built.view_built = true;
        built.view_base = nullptr;
        std::shared_ptr<const CompressedResult> shared =
            ShareResult(std::move(built));
        return Slot{shared, shared->approx_bytes};
      },
      [] { return std::vector<std::string>(); }, nullptr);
}

ArtifactStore::DpState ArtifactStore::PeekState(const StateKey& key) {
  return Lookup<internal::RetainedDpState>(StateSlotKey(key));
}

StatusOr<ArtifactStore::DpState> ArtifactStore::GetOrComputeState(
    const StateKey& key, uint32_t min_clamp, const StateComputeFn& compute,
    const std::vector<uint64_t>& superseded) {
  const std::string slot_key = StateSlotKey(key);
  return Fill<internal::RetainedDpState>(
      slot_key, slot_key, /*count_results=*/false,
      [&](const internal::RetainedDpState& state) {
        return state.clamp >= min_clamp;
      },
      [&](const DpState& narrow) -> StatusOr<Slot> {
        PROVABS_ASSIGN_OR_RETURN(DpState state, compute(narrow));
        const size_t bytes = ApproxDpStateBytes(*state);
        return Slot{std::move(state), bytes};
      },
      [&] { return SlotKeysAt(key, superseded, StateSlotKey); }, nullptr);
}

ArtifactStore::Stats ArtifactStore::stats() const {
  Stats stats;
  stats.artifact_count = artifact_count_.load(std::memory_order_relaxed);
  stats.result_count = result_count_.load(std::memory_order_relaxed);
  stats.program_count = program_count_.load(std::memory_order_relaxed);
  stats.state_count = state_count_.load(std::memory_order_relaxed);
  stats.program_hits = program_hits_.load(std::memory_order_relaxed);
  stats.program_misses = program_misses_.load(std::memory_order_relaxed);
  stats.cached_bytes = used_bytes_.load(std::memory_order_relaxed);
  stats.byte_budget = byte_budget_;
  stats.result_hits = result_hits_.load(std::memory_order_relaxed);
  stats.result_misses = result_misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  InflightRegistry::Stats inflight_stats = inflight_.stats();
  stats.dedup_hits = inflight_stats.dedup_hits;
  stats.inflight_waiters = inflight_stats.waiters_now;
  return stats;
}

std::atomic<uint64_t>& ArtifactStore::CountFor(const std::string& slot_key) {
  switch (slot_key[0]) {
    case 'a':
      return artifact_count_;
    case 'p':
      return program_count_;
    case 's':
      return state_count_;
    default:
      return result_count_;
  }
}

void ArtifactStore::EraseSlot(
    std::unordered_map<std::string, Slot>::iterator it, Dropped& dropped) {
  used_bytes_.fetch_sub(it->second.bytes, std::memory_order_relaxed);
  CountFor(it->first).fetch_sub(1, std::memory_order_relaxed);
  dropped.push_back(std::move(it->second.value));
  lru_.erase(it->second.lru_it);
  slots_.erase(it);
}

void ArtifactStore::Publish(const std::string& slot_key, Slot slot,
                            const std::vector<std::string>& superseded) {
  // Declared before the lock, so the dropped values are destroyed after it
  // is released: a replaced view or DP state can take long to free.
  Dropped dropped;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = slots_.find(slot_key);
  if (it != slots_.end()) EraseSlot(it, dropped);
  for (const std::string& old_key : superseded) {
    auto old = slots_.find(old_key);
    if (old != slots_.end()) EraseSlot(old, dropped);
  }
  used_bytes_.fetch_add(slot.bytes, std::memory_order_relaxed);
  CountFor(slot_key).fetch_add(1, std::memory_order_relaxed);
  lru_.push_front(slot_key);
  slot.lru_it = lru_.begin();
  slots_.emplace(slot_key, std::move(slot));
  // The entry just published is never evicted, so a budget smaller than
  // one artifact still serves that artifact.
  while (used_bytes_.load(std::memory_order_relaxed) > byte_budget_ &&
         slots_.size() > 1) {
    EraseSlot(slots_.find(lru_.back()), dropped);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace provabs
