#include "server/artifact_store.h"

#include <algorithm>

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
  for (const auto& [name, raw] : artifact.forest_bytes) {
    bytes += name.size() + raw.size();
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

}  // namespace

ArtifactStore::ArtifactStore(size_t byte_budget, size_t shards)
    : byte_budget_(byte_budget),
      shards_(std::max<size_t>(1, shards == 0 ? kDefaultShards : shards)) {
  // Each shard owns an equal slice of the budget; a slice is never zero so
  // the "most recent entry survives" guarantee holds per shard.
  const size_t per_shard = std::max<size_t>(1, byte_budget / shards_.size());
  for (Shard& shard : shards_) shard.byte_budget = per_shard;
}

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

ArtifactStore::Shard& ArtifactStore::ShardFor(const std::string& slot_key) {
  return shards_[std::hash<std::string>{}(slot_key) % shards_.size()];
}

StatusOr<std::shared_ptr<const Artifact>> ArtifactStore::Load(
    const std::string& name, std::string polys_bytes,
    const std::vector<std::pair<std::string, std::string>>& forests) {
  // One load at a time: the read-merge-install cycle below must not
  // interleave with another load of the same artifact (lost update).
  std::lock_guard<std::mutex> load_lock(load_mutex_);
  // Forest-only loads rebuild the existing artifact's current polynomials
  // and raw forest bytes into a fresh table.
  std::map<std::string, std::string> forest_bytes;
  if (polys_bytes.empty()) {
    std::shared_ptr<const Artifact> existing = Get(name);
    if (existing == nullptr) {
      return Status::NotFound("artifact '" + name +
                              "' not loaded (a first load needs polynomials)");
    }
    polys_bytes = SerializePolynomialSet(existing->polys, *existing->vars);
    forest_bytes = existing->forest_bytes;
  }
  for (const auto& [forest_name, bytes] : forests) {
    forest_bytes[forest_name] = bytes;
  }

  // Deserialization happens outside any shard lock: loads are rare but
  // heavy, and must not stall concurrent evaluate traffic.
  auto artifact = std::make_shared<Artifact>();
  artifact->vars = std::make_shared<VariableTable>();
  auto polys = DeserializePolynomialSet(polys_bytes, *artifact->vars);
  if (!polys.ok()) return polys.status();
  artifact->polys = std::move(*polys);
  for (auto& [forest_name, bytes] : forest_bytes) {
    auto forest = DeserializeForest(bytes, *artifact->vars);
    if (!forest.ok()) return forest.status();
    artifact->forests.emplace(forest_name, std::move(*forest));
  }
  artifact->forest_bytes = std::move(forest_bytes);
  artifact->approx_bytes = ApproxArtifactBytes(*artifact);
  artifact->generation =
      next_generation_.fetch_add(1, std::memory_order_relaxed);

  const std::string slot_key = ArtifactSlotKey(name);
  Slot slot;
  slot.artifact = artifact;
  slot.bytes = artifact->approx_bytes;
  InsertSlot(slot_key, std::move(slot));
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
  // The copy carries the revision, the delta log and the compiled snapshot,
  // which the Adds leave as a prefix for the byte estimate below to grow.
  artifact->polys = existing->polys;
  for (const Polynomial& p : added->polynomials()) {
    artifact->polys.Add(p);
  }
  artifact->forests = existing->forests;
  artifact->forest_bytes = existing->forest_bytes;
  artifact->ancestry = existing->ancestry;
  artifact->ancestry.push_back(
      Artifact::Ancestor{existing->generation, existing->polys.revision()});
  if (artifact->ancestry.size() > Artifact::kMaxAncestry) {
    artifact->ancestry.erase(artifact->ancestry.begin());
  }
  artifact->approx_bytes = ApproxArtifactBytes(*artifact);
  artifact->generation =
      next_generation_.fetch_add(1, std::memory_order_relaxed);

  const std::string slot_key = ArtifactSlotKey(name);
  Slot slot;
  slot.artifact = artifact;
  slot.bytes = artifact->approx_bytes;
  InsertSlot(slot_key, std::move(slot));
  return std::shared_ptr<const Artifact>(artifact);
}

std::shared_ptr<const Artifact> ArtifactStore::Get(const std::string& name) {
  const std::string slot_key = ArtifactSlotKey(name);
  Shard& shard = ShardFor(slot_key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.slots.find(slot_key);
  if (it == shard.slots.end()) return nullptr;
  Touch(shard, it);
  return it->second.artifact;
}

std::shared_ptr<const ArtifactStore::CompressedResult>
ArtifactStore::LookupSlot(const std::string& slot_key, CountMode mode) {
  Shard& shard = ShardFor(slot_key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.slots.find(slot_key);
  if (it == shard.slots.end()) {
    if (mode == CountMode::kHitsAndMisses) {
      result_misses_.fetch_add(1, std::memory_order_relaxed);
    }
    return nullptr;
  }
  if (mode != CountMode::kNone) {
    result_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  Touch(shard, it);
  return it->second.result;
}

std::shared_ptr<const ArtifactStore::CompressedResult>
ArtifactStore::LookupResult(const ResultKey& key) {
  return LookupSlot(ResultSlotKey(key), CountMode::kHitsAndMisses);
}

std::shared_ptr<const ArtifactStore::CompressedResult>
ArtifactStore::PeekResult(const ResultKey& key) {
  return LookupSlot(ResultSlotKey(key), CountMode::kNone);
}

std::shared_ptr<const ArtifactStore::CompressedResult>
ArtifactStore::InsertResultSlot(const std::string& slot_key,
                                CompressedResult result) {
  auto shared = std::make_shared<CompressedResult>(std::move(result));
  shared->approx_bytes = ApproxResultBytes(*shared);
  Slot slot;
  slot.result = shared;
  slot.bytes = shared->approx_bytes;
  InsertSlot(slot_key, std::move(slot));
  return shared;
}

std::shared_ptr<const ArtifactStore::CompressedResult>
ArtifactStore::InsertResult(const ResultKey& key, CompressedResult result) {
  return InsertResultSlot(ResultSlotKey(key), std::move(result));
}

std::shared_ptr<const scenario::ScenarioProgram> ArtifactStore::LookupProgram(
    const ProgramKey& key) {
  const std::string slot_key = ProgramSlotKey(key);
  Shard& shard = ShardFor(slot_key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.slots.find(slot_key);
  if (it == shard.slots.end()) {
    program_misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  program_hits_.fetch_add(1, std::memory_order_relaxed);
  Touch(shard, it);
  return it->second.program;
}

std::shared_ptr<const scenario::ScenarioProgram> ArtifactStore::InsertProgram(
    const ProgramKey& key, scenario::ScenarioProgram program) {
  auto shared =
      std::make_shared<const scenario::ScenarioProgram>(std::move(program));
  const std::string slot_key = ProgramSlotKey(key);
  Slot slot;
  slot.program = shared;
  slot.bytes = shared->ApproxBytes();
  InsertSlot(slot_key, std::move(slot));
  return shared;
}

StatusOr<std::shared_ptr<const ArtifactStore::CompressedResult>>
ArtifactStore::GetOrCompute(const ResultKey& key,
                            const ResultComputeFn& compute,
                            GetOrComputeInfo* info,
                            const std::vector<uint64_t>& superseded) {
  // One key encoding serves the lookup, the in-flight slot, the post-claim
  // re-check, and the insert — this is the serving hot path.
  const std::string slot_key = ResultSlotKey(key);
  if (auto cached = LookupSlot(slot_key, CountMode::kHitsAndMisses)) {
    if (info != nullptr) info->cache_hit = true;
    return cached;
  }

  bool deduped = false;
  bool recheck_hit = false;
  InflightRegistry::Outcome outcome = inflight_.DoOrWait(
      slot_key,
      [&]() -> InflightRegistry::Outcome {
        // Double-check after claiming the slot: a previous leader may have
        // published between our miss above and the claim.
        if (auto again = LookupSlot(slot_key, CountMode::kHitsOnly)) {
          recheck_hit = true;
          return {Status::OK(), std::move(again)};
        }
        StatusOr<CompressedResult> computed = compute();
        if (!computed.ok()) return {computed.status(), nullptr};
        std::shared_ptr<const CompressedResult> published =
            InsertResultSlot(slot_key, std::move(*computed));
        ResultKey old_key = key;
        for (uint64_t generation : superseded) {
          old_key.generation = generation;
          EraseKey(ResultSlotKey(old_key));
        }
        return {Status::OK(), std::move(published)};
      },
      &deduped);
  if (info != nullptr) {
    info->cache_hit = recheck_hit;
    info->dedup_hit = deduped;
  }
  if (!outcome.status.ok()) return outcome.status;
  return std::static_pointer_cast<const CompressedResult>(outcome.value);
}

StatusOr<std::shared_ptr<const ArtifactStore::CompressedResult>>
ArtifactStore::GetOrBuildView(const ResultKey& key,
                              std::shared_ptr<const CompressedResult> entry,
                              const ViewBuildFn& build) {
  const std::string slot_key = ResultSlotKey(key);
  std::string flight_key = slot_key;
  flight_key[0] = 'v';  // a view build, not the result's own fill
  InflightRegistry::Outcome outcome = inflight_.DoOrWait(
      flight_key, [&]() -> InflightRegistry::Outcome {
        if (auto latest = LookupSlot(slot_key, CountMode::kNone)) {
          if (latest->view_built) return {Status::OK(), std::move(latest)};
          entry = std::move(latest);
        }
        StatusOr<CompressedResult> built = build(*entry);
        if (!built.ok()) return {built.status(), nullptr};
        built->view_built = true;
        built->view_base = nullptr;
        return {Status::OK(), InsertResultSlot(slot_key, std::move(*built))};
      });
  if (!outcome.status.ok()) return outcome.status;
  return std::static_pointer_cast<const CompressedResult>(outcome.value);
}

ArtifactStore::DpState ArtifactStore::PeekState(const StateKey& key) {
  return StateAt(StateSlotKey(key));
}

ArtifactStore::DpState ArtifactStore::StateAt(const std::string& slot_key) {
  Shard& shard = ShardFor(slot_key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.slots.find(slot_key);
  if (it == shard.slots.end()) return nullptr;
  Touch(shard, it);
  return it->second.state;
}

StatusOr<ArtifactStore::DpState> ArtifactStore::GetOrComputeState(
    const StateKey& key, uint32_t min_clamp, const StateComputeFn& compute,
    const std::vector<uint64_t>& superseded) {
  const std::string slot_key = StateSlotKey(key);
  for (;;) {
    DpState cached = StateAt(slot_key);
    if (cached != nullptr && cached->clamp >= min_clamp) return cached;
    InflightRegistry::Outcome outcome = inflight_.DoOrWait(
        slot_key, [&]() -> InflightRegistry::Outcome {
          DpState narrow = StateAt(slot_key);
          if (narrow != nullptr && narrow->clamp >= min_clamp) {
            return {Status::OK(), std::move(narrow)};
          }
          StatusOr<DpState> computed = compute(narrow);
          if (!computed.ok()) return {computed.status(), nullptr};
          Slot slot;
          slot.state = *computed;
          slot.bytes = ApproxDpStateBytes(**computed);
          InsertSlot(slot_key, std::move(slot));
          StateKey old_key = key;
          for (uint64_t generation : superseded) {
            old_key.generation = generation;
            EraseKey(StateSlotKey(old_key));
          }
          return {Status::OK(), std::move(*computed)};
        });
    if (!outcome.status.ok()) return outcome.status;
    // A waiter receives whatever the leader needed, which may be narrower
    // than what this caller needs; the next round rebuilds it wider.
    auto state = std::static_pointer_cast<const internal::RetainedDpState>(
        outcome.value);
    if (state->clamp >= min_clamp) return state;
  }
}

ArtifactStore::Stats ArtifactStore::stats() const {
  Stats stats;
  stats.artifact_count = artifact_count_.load(std::memory_order_relaxed);
  stats.result_count = result_count_.load(std::memory_order_relaxed);
  stats.program_count = program_count_.load(std::memory_order_relaxed);
  stats.state_count = state_count_.load(std::memory_order_relaxed);
  stats.program_hits = program_hits_.load(std::memory_order_relaxed);
  stats.program_misses = program_misses_.load(std::memory_order_relaxed);
  stats.cached_bytes = used_bytes_total_.load(std::memory_order_relaxed);
  stats.byte_budget = byte_budget_;
  stats.result_hits = result_hits_.load(std::memory_order_relaxed);
  stats.result_misses = result_misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  InflightRegistry::Stats inflight_stats = inflight_.stats();
  stats.dedup_hits = inflight_stats.dedup_hits;
  stats.inflight_waiters = inflight_stats.waiters_now;
  return stats;
}

void ArtifactStore::Touch(
    Shard& shard, std::unordered_map<std::string, Slot>::iterator it) {
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
}

std::atomic<uint64_t>& ArtifactStore::CountFor(const Slot& slot) {
  if (slot.artifact != nullptr) return artifact_count_;
  if (slot.program != nullptr) return program_count_;
  if (slot.state != nullptr) return state_count_;
  return result_count_;
}

void ArtifactStore::EraseSlot(
    Shard& shard, std::unordered_map<std::string, Slot>::iterator it) {
  shard.used_bytes -= it->second.bytes;
  used_bytes_total_.fetch_sub(it->second.bytes, std::memory_order_relaxed);
  CountFor(it->second).fetch_sub(1, std::memory_order_relaxed);
  shard.lru.erase(it->second.lru_it);
  shard.slots.erase(it);
}

void ArtifactStore::EraseKey(const std::string& slot_key) {
  Shard& shard = ShardFor(slot_key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.slots.find(slot_key);
  if (it != shard.slots.end()) EraseSlot(shard, it);
}

void ArtifactStore::InsertSlot(const std::string& slot_key, Slot slot) {
  Shard& shard = ShardFor(slot_key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.slots.find(slot_key);
  if (it != shard.slots.end()) EraseSlot(shard, it);
  shard.lru.push_front(slot_key);
  slot.lru_it = shard.lru.begin();
  shard.used_bytes += slot.bytes;
  used_bytes_total_.fetch_add(slot.bytes, std::memory_order_relaxed);
  CountFor(slot).fetch_add(1, std::memory_order_relaxed);
  shard.slots.emplace(slot_key, std::move(slot));
  EvictToBudget(shard);
}

void ArtifactStore::EvictToBudget(Shard& shard) {
  while (shard.used_bytes > shard.byte_budget && shard.slots.size() > 1) {
    EraseSlot(shard, shard.slots.find(shard.lru.back()));
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace provabs
