#ifndef PROVABS_CORE_COMPILED_POLYNOMIAL_SET_H_
#define PROVABS_CORE_COMPILED_POLYNOMIAL_SET_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/variable.h"

namespace provabs {

class PolynomialSet;
class Valuation;
class CompiledPolynomialSet;

/// A Valuation materialized against one CompiledPolynomialSet: a flat
/// slot-indexed value array, so the evaluation inner loop reads values by
/// array index instead of probing a hash map per factor. Slots are the
/// compiled set's dense variable indices; a DenseValuation is only
/// meaningful together with the compiled set that produced it — it carries
/// that set's fingerprint so batch entry points can reject a stale or
/// foreign valuation (e.g. one materialized before a copied set was
/// mutated and recompiled) instead of silently mis-indexing.
class DenseValuation {
 public:
  DenseValuation() = default;

  /// Value of slot `s` (variables the source Valuation did not assign hold
  /// the default 1.0).
  double operator[](uint32_t slot) const { return values_[slot]; }

  size_t slot_count() const { return values_.size(); }

  /// Raw slot array, for batched backends that transpose valuations into
  /// structure-of-arrays lanes (core/evaluation_backend.h).
  const double* data() const { return values_.data(); }

  /// Fingerprint of the CompiledPolynomialSet this was materialized
  /// against (0 for a default-constructed valuation). Evaluating under any
  /// other compiled form is a slot-mapping mismatch.
  uint64_t source_fingerprint() const { return source_fingerprint_; }

 private:
  friend class CompiledPolynomialSet;
  std::vector<double> values_;
  uint64_t source_fingerprint_ = 0;
};

/// A PolynomialSet flattened into CSR-style contiguous arrays for fast
/// repeated evaluation — the operation the paper's abstraction exists to
/// speed up (Fig. 10). The nested
/// `vector<Polynomial> → vector<Monomial> → vector<Factor>` representation
/// pointer-chases three levels and hashes once per factor; the compiled
/// form walks four flat arrays sequentially:
///
///   poly_offsets_[p] .. poly_offsets_[p+1]   — monomial range of poly p
///   mono_offsets_[m] .. mono_offsets_[m+1]   — slot-entry range of mono m
///   coefficients_[m]                          — monomial coefficient
///   factor_slots_[f]                          — dense variable slot
///
/// There is one slot entry per multiplication: a factor x^e is e
/// consecutive entries holding x's slot, so a monomial's entry count is its
/// total degree and no kernel loops over exponents. The deserializer caps
/// monomial degree (kMaxMonomialDegree, io/serializer.h), which keeps the
/// expansion linear in the bytes loaded.
///
/// Slots are dense indices assigned at compile time in first-appearance
/// order; `MaterializeValuation` resolves a scenario's hash map into a
/// slot-indexed array once per valuation instead of once per factor. The
/// variable -> slot index is retained, so `SlotOf` answers "does this
/// variable occur?" in O(1) and `Extend` can grow a form without
/// recompiling its prefix.
///
/// Evaluation reproduces the canonical summation order of
/// `Valuation::Evaluate` operation-for-operation (monomials left to right,
/// factors left to right, exponents by repeated multiplication), so results
/// are bitwise identical to the naive path — differential tests assert
/// exact equality, not tolerance.
///
/// Instances are immutable after `Compile`/`Extend` (apart from the
/// relaxed routing counter below) and safe to share across threads.
class CompiledPolynomialSet {
 public:
  CompiledPolynomialSet() = default;

  /// Flattens `polys`. The compiled form is a snapshot: later mutation of
  /// `polys` is not reflected (PolynomialSet's lazy `Compiled()` cache
  /// grows it on the common route).
  static CompiledPolynomialSet Compile(const PolynomialSet& polys);

  /// `prefix` grown by polynomials [prefix.poly_count(), polys.count()) of
  /// `polys`, whose first prefix.poly_count() polynomials must be the ones
  /// `prefix` was compiled from (PolynomialSet::Add keeps its snapshot as
  /// such a prefix). Copies the prefix's arrays and slot index and gives
  /// variables new to the suffix the next slots in first-appearance order,
  /// so the result is bitwise identical to Compile(polys), under a fresh
  /// fingerprint: valuations of the prefix stay tied to the prefix.
  static CompiledPolynomialSet Extend(const CompiledPolynomialSet& prefix,
                                      const PolynomialSet& polys);

  /// Number of polynomials (matches the source set's count()).
  size_t poly_count() const {
    return poly_offsets_.empty() ? 0 : poly_offsets_.size() - 1;
  }

  /// Total monomials (|P|_M) across the set, and slot entries: one per
  /// multiplication, so the sum of the monomials' total degrees.
  size_t monomial_count() const { return coefficients_.size(); }
  size_t factor_count() const { return factor_slots_.size(); }

  /// Number of distinct variables (= slots) in the set.
  size_t slot_count() const { return slot_vars_.size(); }

  /// slot -> VariableId, in slot order.
  const std::vector<VariableId>& slot_variables() const { return slot_vars_; }

  static constexpr uint32_t kNoSlot = 0xFFFFFFFFu;

  /// The slot of `var`, or kNoSlot when it occurs in no polynomial.
  uint32_t SlotOf(VariableId var) const {
    auto it = slot_of_.find(var);
    return it == slot_of_.end() ? kNoSlot : it->second;
  }

  /// Process-unique id of this compiled form, assigned by `Compile` (0 only
  /// for a default-constructed instance). Two forms compiled from
  /// identical polynomials still get distinct fingerprints: the fingerprint
  /// identifies the slot mapping a DenseValuation was materialized against,
  /// and "same mapping" is only guaranteed for the SAME compiled snapshot
  /// (which copies of a PolynomialSet share — see PolynomialSet::Compiled).
  uint64_t fingerprint() const { return fingerprint_; }

  /// Borrowed pointers into the CSR arrays, for evaluation backends
  /// (core/evaluation_backend.h) and the future JIT that walk the layout
  /// directly. Valid for this object's lifetime.
  struct CsrView {
    const uint32_t* poly_offsets;  ///< size poly_count()+1
    const uint32_t* mono_offsets;  ///< size monomial_count()+1
    const double* coefficients;    ///< per monomial
    const uint32_t* factor_slots;  ///< per multiplication
  };
  CsrView csr() const {
    return CsrView{poly_offsets_.data(), mono_offsets_.data(),
                   coefficients_.data(), factor_slots_.data()};
  }

  /// Resolves `valuation` into a slot-indexed array: one hash probe per
  /// distinct variable of the set, 1.0 for unassigned slots. Variables the
  /// valuation assigns but the set never mentions have no slot and are
  /// ignored — exactly the naive path's behaviour.
  DenseValuation MaterializeValuation(const Valuation& valuation) const;

  /// Builds a DenseValuation directly from a per-slot value array (entry i
  /// is the value of slot_variables()[i]) — the batch-expansion entry point
  /// for generated scenario families (scenario/program.h), which produce
  /// slot-ordered values natively and should not pay a hash probe per
  /// variable. Checks (aborts) that `values` has exactly slot_count()
  /// entries.
  DenseValuation MaterializeSlots(std::vector<double> values) const;

  /// Evaluates polynomial `p` under `dense`; bitwise identical to
  /// `Valuation::Evaluate` on the source polynomial.
  double EvaluateOne(size_t p, const DenseValuation& dense) const {
    double total = 0.0;
    for (uint32_t m = poly_offsets_[p]; m < poly_offsets_[p + 1]; ++m) {
      double term = coefficients_[m];
      for (uint32_t f = mono_offsets_[m]; f < mono_offsets_[m + 1]; ++f) {
        term *= dense[factor_slots_[f]];
      }
      total += term;
    }
    return total;
  }

  /// Evaluates polynomials [begin, end) into out[0..end-begin); the chunked
  /// entry point for parallel and batched evaluation (a contiguous
  /// polynomial range is a contiguous walk of the flat arrays).
  void EvaluateRange(size_t begin, size_t end, const DenseValuation& dense,
                     double* out) const {
    for (size_t p = begin; p < end; ++p) {
      out[p - begin] = EvaluateOne(p, dense);
    }
  }

  /// Evaluates every polynomial; out[i] is the value of polynomial i.
  /// Checks (aborts) that `dense` was materialized from THIS compiled form;
  /// backends report the same condition as a recoverable Status instead.
  std::vector<double> EvaluateAll(const DenseValuation& dense) const;

  /// Rough resident size, for the serving layer's byte-budget accounting.
  size_t ApproxBytes() const;

  /// Adds `n` to the scenarios this snapshot has served, in auto-routed
  /// calls the jit would take, before the jit took them. Auto-routing
  /// (EvaluationBackendRegistry::ResolveForBatch) reads the count to emit
  /// jit code only for snapshots that have shown enough such traffic to
  /// repay the emission. Relaxed: the count steers routing, never results.
  void CountInterpretedScenarios(uint64_t n) const {
    interpreted_scenarios_.value.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t interpreted_scenarios() const {
    return interpreted_scenarios_.value.load(std::memory_order_relaxed);
  }

 private:
  /// A relaxed atomic that copies as its current value, so the form keeps
  /// its value semantics.
  struct RelaxedCounter {
    RelaxedCounter() = default;
    RelaxedCounter(const RelaxedCounter& other) : value(other.load()) {}
    RelaxedCounter& operator=(const RelaxedCounter& other) {
      value.store(other.load(), std::memory_order_relaxed);
      return *this;
    }
    uint64_t load() const { return value.load(std::memory_order_relaxed); }
    mutable std::atomic<uint64_t> value{0};
  };

  std::vector<uint32_t> poly_offsets_;  // size poly_count()+1
  std::vector<uint32_t> mono_offsets_;  // size monomial_count()+1
  std::vector<double> coefficients_;    // per monomial
  std::vector<uint32_t> factor_slots_;  // per multiplication
  std::vector<VariableId> slot_vars_;   // slot -> variable
  std::unordered_map<VariableId, uint32_t> slot_of_;  // variable -> slot
  uint64_t fingerprint_ = 0;            // see fingerprint()
  RelaxedCounter interpreted_scenarios_;
};

}  // namespace provabs

#endif  // PROVABS_CORE_COMPILED_POLYNOMIAL_SET_H_
