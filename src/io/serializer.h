#ifndef PROVABS_IO_SERIALIZER_H_
#define PROVABS_IO_SERIALIZER_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "abstraction/abstraction_forest.h"
#include "abstraction/valid_variable_set.h"
#include "circuit/circuit.h"
#include "common/statusor.h"
#include "core/polynomial_set.h"
#include "core/variable.h"

namespace provabs {

/// Binary serialization of provenance artifacts. The paper's deployment
/// model (§1, "Offline vs. Online Compression") generates provenance once
/// on a strong machine and ships it to analysts; these routines define the
/// wire/storage format:
///
///   [magic "PVAB"] [version u8] [kind u8] [payload]
///
/// Variable names travel in a per-buffer dictionary, so ids are remapped
/// into the reader's own VariableTable on load — two processes never need
/// to agree on integer ids, only on names.
///
/// All readers are bounds-checked and return Status errors on malformed
/// input; they never abort.

/// Largest total degree (sum of exponents) of a monomial the deserializer
/// accepts. Compiled evaluation spends one multiplication, one CSR slot
/// entry and one jit mulsd per unit of degree, so an uncapped exponent
/// would let a few input bytes demand gigabytes. Every workload generator
/// here emits degree-2 monomials.
inline constexpr uint64_t kMaxMonomialDegree = 64;

/// Serializes the polynomial multiset (with its variable names).
std::string SerializePolynomialSet(const PolynomialSet& polys,
                                   const VariableTable& vars);

/// Parses a buffer produced by SerializePolynomialSet, interning names
/// into `vars`. Rejects (kInvalidArgument) a monomial whose total degree,
/// summed over its factors before duplicates merge, exceeds
/// kMaxMonomialDegree.
StatusOr<PolynomialSet> DeserializePolynomialSet(std::string_view data,
                                                 VariableTable& vars);

/// Serializes an abstraction forest (tree structures + labels).
std::string SerializeForest(const AbstractionForest& forest,
                            const VariableTable& vars);

/// Parses a buffer produced by SerializeForest.
StatusOr<AbstractionForest> DeserializeForest(std::string_view data,
                                              VariableTable& vars);

/// Serializes a chosen abstraction as the list of chosen node labels
/// (robust to node renumbering across processes).
std::string SerializeVvs(const ValidVariableSet& vvs,
                         const AbstractionForest& forest,
                         const VariableTable& vars);

/// Parses a VVS against `forest`: every stored label must name a node of
/// the forest.
StatusOr<ValidVariableSet> DeserializeVvs(std::string_view data,
                                          const AbstractionForest& forest,
                                          VariableTable& vars);

/// Convenience file I/O (whole-buffer).
Status WriteFile(const std::string& path, std::string_view data);
StatusOr<std::string> ReadFileToString(const std::string& path);

/// Serializes a factorized provenance circuit collection (one circuit per
/// output polynomial) — the compact artifact of the §5 "abstraction +
/// lossless storage" combination.
std::string SerializeCircuits(const std::vector<ProvenanceCircuit>& circuits,
                              const VariableTable& vars);

/// Parses a buffer produced by SerializeCircuits; validates every circuit.
StatusOr<std::vector<ProvenanceCircuit>> DeserializeCircuits(
    std::string_view data, VariableTable& vars);

}  // namespace provabs

#endif  // PROVABS_IO_SERIALIZER_H_
