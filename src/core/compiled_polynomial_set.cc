#include "core/compiled_polynomial_set.h"

#include <atomic>

#include "common/macros.h"
#include "core/polynomial_set.h"
#include "core/valuation.h"

namespace provabs {

CompiledPolynomialSet CompiledPolynomialSet::Compile(
    const PolynomialSet& polys) {
  return Extend(CompiledPolynomialSet(), polys);
}

CompiledPolynomialSet CompiledPolynomialSet::Extend(
    const CompiledPolynomialSet& prefix, const PolynomialSet& polys) {
  // Fingerprints start at 1 so 0 unambiguously means "never compiled"
  // (default-constructed forms and valuations).
  static std::atomic<uint64_t> next_fingerprint{1};
  const size_t first = prefix.poly_count();
  PROVABS_CHECK(first <= polys.count());
  size_t monomials = prefix.monomial_count();
  size_t factors = prefix.factor_count();
  for (size_t p = first; p < polys.count(); ++p) {
    for (const Monomial& m : polys[p].monomials()) {
      ++monomials;
      factors += m.total_degree();
    }
  }
  // The CSR offsets are 32-bit; provenance sets here are far below 4G
  // monomials (the serving layer's byte budget caps them long before).
  PROVABS_CHECK(monomials < 0xFFFFFFFFu && factors < 0xFFFFFFFFu);

  CompiledPolynomialSet out;
  out.fingerprint_ = next_fingerprint.fetch_add(1, std::memory_order_relaxed);
  out.poly_offsets_.reserve(polys.count() + 1);
  out.mono_offsets_.reserve(monomials + 1);
  out.coefficients_.reserve(monomials);
  out.factor_slots_.reserve(factors);
  if (first == 0) {
    out.poly_offsets_.push_back(0);
    out.mono_offsets_.push_back(0);
  } else {
    auto append = [](auto& to, const auto& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(out.poly_offsets_, prefix.poly_offsets_);
    append(out.mono_offsets_, prefix.mono_offsets_);
    append(out.coefficients_, prefix.coefficients_);
    append(out.factor_slots_, prefix.factor_slots_);
    out.slot_vars_ = prefix.slot_vars_;
    out.slot_of_ = prefix.slot_of_;
  }
  for (size_t p = first; p < polys.count(); ++p) {
    for (const Monomial& m : polys[p].monomials()) {
      out.coefficients_.push_back(m.coefficient());
      for (const Factor& f : m.factors()) {
        // try_emplace probes before allocating a node; emplace would
        // allocate (and free) one per factor.
        auto [it, inserted] = out.slot_of_.try_emplace(
            f.var, static_cast<uint32_t>(out.slot_vars_.size()));
        if (inserted) out.slot_vars_.push_back(f.var);
        out.factor_slots_.insert(out.factor_slots_.end(), f.exp, it->second);
      }
      out.mono_offsets_.push_back(
          static_cast<uint32_t>(out.factor_slots_.size()));
    }
    out.poly_offsets_.push_back(
        static_cast<uint32_t>(out.coefficients_.size()));
  }
  return out;
}

DenseValuation CompiledPolynomialSet::MaterializeValuation(
    const Valuation& valuation) const {
  DenseValuation dense;
  dense.source_fingerprint_ = fingerprint_;
  dense.values_.reserve(slot_vars_.size());
  for (VariableId var : slot_vars_) {
    dense.values_.push_back(valuation.Get(var));
  }
  return dense;
}

DenseValuation CompiledPolynomialSet::MaterializeSlots(
    std::vector<double> values) const {
  PROVABS_CHECK(values.size() == slot_vars_.size());
  DenseValuation dense;
  dense.source_fingerprint_ = fingerprint_;
  dense.values_ = std::move(values);
  return dense;
}

std::vector<double> CompiledPolynomialSet::EvaluateAll(
    const DenseValuation& dense) const {
  // A valuation materialized against a different compiled form (a mutated
  // copy, another set) would read wrong slots — or past the end of its
  // array. Mixing them is a programming error, caught here rather than
  // surfacing as silently wrong what-if answers.
  PROVABS_CHECK(dense.source_fingerprint() == fingerprint_);
  std::vector<double> out(poly_count());
  EvaluateRange(0, poly_count(), dense, out.data());
  return out;
}

size_t CompiledPolynomialSet::ApproxBytes() const {
  size_t bytes = sizeof(CompiledPolynomialSet);
  bytes += poly_offsets_.capacity() * sizeof(uint32_t);
  bytes += mono_offsets_.capacity() * sizeof(uint32_t);
  bytes += coefficients_.capacity() * sizeof(double);
  bytes += factor_slots_.capacity() * sizeof(uint32_t);
  bytes += slot_vars_.capacity() * sizeof(VariableId);
  // One hash node (key, slot, next pointer, cached hash) per variable plus
  // the bucket array.
  bytes += slot_of_.size() * 32 + slot_of_.bucket_count() * sizeof(void*);
  return bytes;
}

}  // namespace provabs
