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
      revision_(other.revision_) {}

PolynomialSet& PolynomialSet::operator=(const PolynomialSet& other) {
  if (this == &other) return *this;
  polys_ = other.polys_;
  std::atomic_store_explicit(
      &compiled_,
      std::atomic_load_explicit(&other.compiled_, std::memory_order_acquire),
      std::memory_order_release);
  revision_ = other.revision_;
  return *this;
}

PolynomialSet::PolynomialSet(PolynomialSet&& other) noexcept
    : polys_(std::move(other.polys_)),
      compiled_(std::atomic_load_explicit(&other.compiled_,
                                          std::memory_order_acquire)),
      revision_(other.revision_) {
  // The moved-from set's polynomials are gone; a retained compiled cache
  // would describe contents it no longer has.
  std::atomic_store_explicit(&other.compiled_,
                             std::shared_ptr<const CompiledPolynomialSet>(),
                             std::memory_order_release);
  other.revision_ = 0;
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
  other.revision_ = 0;
  return *this;
}

PolynomialSetDelta PolynomialSet::DeltaSince(uint64_t from_revision) const {
  PolynomialSetDelta delta;
  delta.from_revision = from_revision;
  delta.to_revision = revision_;
  delta.first_added_index = polys_.size();
  if (from_revision > revision_) return delta;  // Incoherent observer.
  delta.first_added_index =
      polys_.size() - static_cast<size_t>(revision_ - from_revision);
  std::vector<VariableId>& touched = delta.touched_vars;
  for (size_t i = delta.first_added_index; i < polys_.size(); ++i) {
    delta.added_monomials += polys_[i].SizeM();
    for (const Monomial& m : polys_[i].monomials()) {
      for (const Factor& f : m.factors()) touched.push_back(f.var);
    }
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
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
    // Direct push, not Add: the mapped set is a fresh baseline (revision 0),
    // not a sequence of appends to an empty set.
    result.polys_.push_back(p.MapVariables(map, combine));
  }
  return result;
}

}  // namespace provabs
