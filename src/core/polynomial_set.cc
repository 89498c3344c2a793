#include "core/polynomial_set.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "core/compiled_polynomial_set.h"

namespace provabs {

PolynomialSet::PolynomialSet(const PolynomialSet& other)
    : polys_(other.polys_),
      compiled_(std::atomic_load_explicit(&other.compiled_,
                                          std::memory_order_acquire)),
      revision_(other.revision_),
      delta_log_(other.delta_log_) {}

PolynomialSet& PolynomialSet::operator=(const PolynomialSet& other) {
  if (this == &other) return *this;
  polys_ = other.polys_;
  std::atomic_store_explicit(
      &compiled_,
      std::atomic_load_explicit(&other.compiled_, std::memory_order_acquire),
      std::memory_order_release);
  revision_ = other.revision_;
  delta_log_ = other.delta_log_;
  return *this;
}

PolynomialSet::PolynomialSet(PolynomialSet&& other) noexcept
    : polys_(std::move(other.polys_)),
      compiled_(std::atomic_load_explicit(&other.compiled_,
                                          std::memory_order_acquire)),
      revision_(other.revision_),
      delta_log_(std::move(other.delta_log_)) {
  // The moved-from set's polynomials are gone; a retained compiled cache
  // would describe contents it no longer has.
  std::atomic_store_explicit(&other.compiled_,
                             std::shared_ptr<const CompiledPolynomialSet>(),
                             std::memory_order_release);
  other.revision_ = 0;
  other.delta_log_.clear();
}

PolynomialSet& PolynomialSet::operator=(PolynomialSet&& other) noexcept {
  if (this == &other) return *this;
  polys_ = std::move(other.polys_);
  std::atomic_store_explicit(
      &compiled_,
      std::atomic_load_explicit(&other.compiled_, std::memory_order_acquire),
      std::memory_order_release);
  std::atomic_store_explicit(&other.compiled_,
                             std::shared_ptr<const CompiledPolynomialSet>(),
                             std::memory_order_release);
  revision_ = other.revision_;
  delta_log_ = std::move(other.delta_log_);
  other.revision_ = 0;
  other.delta_log_.clear();
  return *this;
}

void PolynomialSet::Add(Polynomial p) {
  DeltaLogEntry entry;
  entry.revision = ++revision_;
  entry.poly_index = static_cast<uint32_t>(polys_.size());
  entry.monomials = static_cast<uint32_t>(p.SizeM());
  std::unordered_set<VariableId> vars;
  p.CollectVariables(vars);
  entry.vars.assign(vars.begin(), vars.end());
  if (delta_log_.size() == kDeltaLogCapacity) {
    delta_log_.erase(delta_log_.begin());
  }
  delta_log_.push_back(std::move(entry));
  polys_.push_back(std::move(p));
}

PolynomialSetDelta PolynomialSet::DeltaSince(uint64_t from_revision) const {
  PolynomialSetDelta delta;
  delta.from_revision = from_revision;
  delta.to_revision = revision_;
  delta.first_added_index = polys_.size();
  if (from_revision > revision_) return delta;  // Incoherent observer.
  if (from_revision == revision_) {
    delta.complete = true;
    return delta;
  }
  // The log holds the last kDeltaLogCapacity appends; revisions in
  // (from, to] must all still be present. The oldest retained revision is
  // delta_log_.front().revision, so the log reaches back to
  // front().revision - 1.
  if (delta_log_.empty() || delta_log_.front().revision > from_revision + 1) {
    return delta;  // Truncated: complete stays false.
  }
  std::unordered_set<VariableId> touched;
  for (const DeltaLogEntry& entry : delta_log_) {
    if (entry.revision <= from_revision) continue;
    delta.first_added_index =
        std::min(delta.first_added_index, size_t{entry.poly_index});
    delta.added_monomials += entry.monomials;
    touched.insert(entry.vars.begin(), entry.vars.end());
  }
  delta.touched_vars.assign(touched.begin(), touched.end());
  std::sort(delta.touched_vars.begin(), delta.touched_vars.end());
  delta.complete = true;
  return delta;
}

std::shared_ptr<const CompiledPolynomialSet> PolynomialSet::Compiled() const {
  std::shared_ptr<const CompiledPolynomialSet> cached =
      std::atomic_load_explicit(&compiled_, std::memory_order_acquire);
  if (cached != nullptr && cached->poly_count() == polys_.size()) {
    return cached;
  }
  // Racing compilers each build an identical (deterministic) form; the last
  // store wins and the losers' snapshots remain valid. Compilation is one
  // linear pass, so duplicate work on a race is cheaper than a per-set
  // mutex on the hot path. A prefix snapshot left by Add is grown, not
  // recompiled.
  auto built = std::make_shared<const CompiledPolynomialSet>(
      cached != nullptr ? CompiledPolynomialSet::Extend(*cached, *this)
                        : CompiledPolynomialSet::Compile(*this));
  std::atomic_store_explicit(
      &compiled_, std::shared_ptr<const CompiledPolynomialSet>(built),
      std::memory_order_release);
  return built;
}

size_t PolynomialSet::SizeM() const {
  size_t total = 0;
  for (const Polynomial& p : polys_) total += p.SizeM();
  return total;
}

std::unordered_set<VariableId> PolynomialSet::Variables() const {
  std::unordered_set<VariableId> vars;
  for (const Polynomial& p : polys_) p.CollectVariables(vars);
  return vars;
}

size_t PolynomialSet::SizeV() const { return Variables().size(); }

PolynomialSet PolynomialSet::MapVariables(
    const std::function<VariableId(VariableId)>& map,
    CoefficientCombine combine) const {
  PolynomialSet result;
  result.polys_.reserve(polys_.size());
  for (const Polynomial& p : polys_) {
    // Direct push, not Add: the mapped set is a fresh baseline (revision 0,
    // empty delta log), not a sequence of appends to an empty set.
    result.polys_.push_back(p.MapVariables(map, combine));
  }
  return result;
}

}  // namespace provabs
