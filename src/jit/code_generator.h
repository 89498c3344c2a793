#ifndef PROVABS_JIT_CODE_GENERATOR_H_
#define PROVABS_JIT_CODE_GENERATOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/statusor.h"
#include "core/compiled_polynomial_set.h"

namespace provabs {
namespace jit {

/// Native code emitted for one CompiledPolynomialSet: a single contiguous
/// blob containing one straight-line function per polynomial, entered at
/// `entry_offsets[p]`. Each function has the SysV signature
///
///   double fn(const double* slots);   // rdi = DenseValuation::data()
///
/// and is the compiled form's CSR walk fully unrolled: the monomial and
/// factor loops are gone, coefficients are embedded in the instruction
/// stream as imm64 constants, and every dense-slot read is a movsd with a
/// fixed [rdi + 8*slot] displacement. The emitted operation sequence is
/// exactly the canonical one documented on Valuation::Evaluate —
/// term = coefficient; term *= value (exponent times); total += term — as
/// scalar SSE2 mulsd/addsd that hardware cannot contract into FMA, so the
/// returned bits equal the interpreter's on every input.
struct GeneratedCode {
  std::vector<uint8_t> code;
  /// entry_offsets[p] = byte offset of polynomial p's function in `code`.
  std::vector<size_t> entry_offsets;
  /// Byte offset of the full-set function
  ///
  ///   void fn(const double* slots, double* out);  // rdi, rsi
  ///
  /// — every polynomial's body concatenated into one straight line, each
  /// result stored to out[p] instead of returned. A full-range batch is
  /// then ONE call per scenario rather than one per polynomial, which is
  /// what makes the jit win on sets of many tiny polynomials where
  /// per-call overhead would otherwise swamp the straight-line gain; the
  /// per-polynomial entries above serve partial [begin, end) ranges.
  size_t range_entry = 0;
};

/// Emits GeneratedCode for every polynomial of `compiled`. Fails with
/// kOutOfRange when the blob would exceed `max_code_bytes` (fully-unrolled
/// code is linear in the set's slot entries, i.e. its monomials' total
/// degrees, which the deserializer caps per monomial; a large set could
/// out-size the instruction cache's usefulness and the arena budget — the
/// backend treats the refusal as one more counted fallback reason) or when
/// a slot offset cannot be addressed with a disp32 (slot > 2^28 — beyond
/// any set the 32-bit CSR arrays can describe usefully).
StatusOr<GeneratedCode> GeneratePolynomialSetCode(
    const CompiledPolynomialSet& compiled, size_t max_code_bytes);

}  // namespace jit
}  // namespace provabs

#endif  // PROVABS_JIT_CODE_GENERATOR_H_
