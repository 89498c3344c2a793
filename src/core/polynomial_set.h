#ifndef PROVABS_CORE_POLYNOMIAL_SET_H_
#define PROVABS_CORE_POLYNOMIAL_SET_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/polynomial.h"

namespace provabs {

class CompiledPolynomialSet;

/// Everything appended to a PolynomialSet after some observed revision.
/// Downstream caches pair a retained result with the revision it was
/// computed at and ask for the delta to decide between patching and full
/// recomputation; `complete` false means the observed revision is ahead of
/// the set's (it was reset since), and the only sound answer is a full
/// recompute.
struct PolynomialSetDelta {
  uint64_t from_revision = 0;
  uint64_t to_revision = 0;
  /// Polynomials [first_added_index, count()) are the appended ones; the
  /// prefix before it is untouched (Add is append-only).
  size_t first_added_index = 0;
  /// Total monomials across the appended polynomials (the |P|_M growth).
  size_t added_monomials = 0;
  /// Union of the appended polynomials' variables, sorted and deduplicated.
  /// Downstream code intersects this with abstraction-tree leaf sets to
  /// find the touched trees.
  std::vector<VariableId> touched_vars;
  /// False when `from_revision` is ahead of the set's revision; all other
  /// fields are then meaningless.
  bool complete = false;

  bool empty() const { return complete && from_revision == to_revision; }
};

/// A multiset of provenance polynomials — the provenance-aware result of a
/// query, one polynomial per output tuple/group. The paper's measures lift
/// pointwise: |P|_M is the total monomial count, V(P) the union of variable
/// sets (§2.1, Notations).
class PolynomialSet {
 public:
  PolynomialSet() = default;

  /// Takes ownership of `polys`; order is preserved (polynomial i stays
  /// the annotation of output tuple i).
  explicit PolynomialSet(std::vector<Polynomial> polys)
      : polys_(std::move(polys)) {}

  // Value semantics are preserved; the lazily compiled evaluation form is
  // immutable and valid for any set whose polynomials start with the ones
  // it was compiled from, so copies share it and moves carry it.
  PolynomialSet(const PolynomialSet& other);
  PolynomialSet& operator=(const PolynomialSet& other);
  PolynomialSet(PolynomialSet&& other) noexcept;
  PolynomialSet& operator=(PolynomialSet&& other) noexcept;

  /// Appends one polynomial (one more output tuple's annotation) and bumps
  /// the revision. A compiled evaluation form now covers a prefix of the
  /// set; the next `Compiled()` extends it instead of recompiling.
  void Add(Polynomial p) {
    polys_.push_back(std::move(p));
    ++revision_;
  }

  /// Monotone mutation counter: 0 for a freshly constructed set (including
  /// the vector constructor — the initial contents ARE revision 0), +1 per
  /// Add. Copies carry the revision; a moved-from set resets to empty.
  uint64_t revision() const { return revision_; }

  /// Everything appended after `from_revision`. Add is the only mutation
  /// that keeps the revision, and it appends exactly one polynomial, so
  /// the appends are the last revision() − from_revision polynomials: a
  /// delta never runs out of history. Asking from a revision ahead of the
  /// set's returns `complete == false`, the caller's signal to recompute
  /// from scratch instead of patching.
  PolynomialSetDelta DeltaSince(uint64_t from_revision) const;

  const std::vector<Polynomial>& polynomials() const { return polys_; }
  /// Number of polynomials (query output tuples), NOT monomials — see
  /// SizeM() for the paper's |P|_M measure.
  size_t count() const { return polys_.size(); }
  const Polynomial& operator[](size_t i) const { return polys_[i]; }

  /// |P|_M — total number of monomials across all polynomials.
  size_t SizeM() const;

  /// V(P) — union of the variable sets.
  std::unordered_set<VariableId> Variables() const;

  /// |P|_V — number of distinct variables across all polynomials.
  size_t SizeV() const;

  /// Applies a variable substitution pointwise (P↓S lifted to sets).
  PolynomialSet MapVariables(
      const std::function<VariableId(VariableId)>& map,
      CoefficientCombine combine = CoefficientCombine::kAdd) const;

  /// The set flattened into the CSR evaluation form
  /// (core/compiled_polynomial_set.h), compiled on first call and cached.
  /// After `Add`s the cached snapshot is a prefix, and this grows it by the
  /// appended polynomials (CompiledPolynomialSet::Extend): bitwise the
  /// arrays of a cold compile, under a new fingerprint. Thread-safe:
  /// concurrent callers may race to compile, but compilation is
  /// deterministic, every caller gets a valid snapshot, and the returned
  /// shared_ptr stays alive independently of this set's further mutation
  /// or destruction.
  std::shared_ptr<const CompiledPolynomialSet> Compiled() const;

 private:
  std::vector<Polynomial> polys_;
  /// Lazily compiled evaluation form of polys_ or, after Adds, of a prefix
  /// of it; accessed only through the std::atomic_* shared_ptr free
  /// functions (C++17's pre-atomic<shared_ptr> idiom) so readers never see
  /// a torn pointer.
  mutable std::shared_ptr<const CompiledPolynomialSet> compiled_;
  /// Never above polys_.size(): each revision is one appended polynomial.
  uint64_t revision_ = 0;
};

}  // namespace provabs

#endif  // PROVABS_CORE_POLYNOMIAL_SET_H_
