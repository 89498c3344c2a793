#include "jit/code_generator.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "jit/x86_encoder.h"

namespace provabs {
namespace jit {

namespace {

/// Register plan shared by every emitted function. xmm0 doubles as the
/// accumulator and the SysV return register, so the final addsd leaves the
/// result exactly where `ret` needs it.
constexpr Xmm kTotal = Xmm::xmm0;   // running sum over monomials
constexpr Xmm kTerm = Xmm::xmm1;    // current monomial's product
constexpr Xmm kFactor = Xmm::xmm2;  // loaded slot value
constexpr Gp64 kSlots = Gp64::rdi;  // const double* slots (argument 0)
constexpr Gp64 kOut = Gp64::rsi;    // double* out (range function only)

/// Emits polynomial p's evaluation into kTotal: zero the accumulator, then
/// per monomial materialize the coefficient and multiply factors in the
/// canonical order. Shared by the per-polynomial functions (which follow
/// it with ret) and the full-set range function (which follows it with a
/// store to out[p]).
void EmitPolyBody(X86Encoder& enc, const CompiledPolynomialSet::CsrView& csr,
                  size_t p) {
  // total = 0.0 — xorpd produces +0.0, the same bits the interpreter's
  // accumulator initializer does.
  enc.XorpdZero(kTotal);
  for (uint32_t m = csr.poly_offsets[p]; m < csr.poly_offsets[p + 1]; ++m) {
    // term = coefficient, raw IEEE-754 bits embedded as an imm64.
    uint64_t coeff_bits;
    std::memcpy(&coeff_bits, &csr.coefficients[m], sizeof(coeff_bits));
    enc.MovRaxImm64(coeff_bits);
    enc.MovqFromRax(kTerm);
    // One mulsd per slot entry: a factor x^e is e entries, so
    // exponentiation stays repeated multiplication in the canonical order
    // (never pow, never a square-and-multiply reassociation). The e
    // entries are consecutive and equal, so x is loaded once for them.
    for (uint32_t f = csr.mono_offsets[m]; f < csr.mono_offsets[m + 1]; ++f) {
      if (f == csr.mono_offsets[m] ||
          csr.factor_slots[f] != csr.factor_slots[f - 1]) {
        enc.MovsdLoad(kFactor, kSlots,
                      static_cast<int32_t>(uint64_t{csr.factor_slots[f]} * 8));
      }
      enc.Mulsd(kTerm, kFactor);
    }
    enc.Addsd(kTotal, kTerm);
  }
}

}  // namespace

StatusOr<GeneratedCode> GeneratePolynomialSetCode(
    const CompiledPolynomialSet& compiled, size_t max_code_bytes) {
  const CompiledPolynomialSet::CsrView csr = compiled.csr();
  const size_t poly_count = compiled.poly_count();

  // Every slot load and every out[p] store must be reachable as an
  // 8-byte-strided disp32.
  const uint64_t max_index =
      std::max<uint64_t>(compiled.slot_count(), poly_count);
  if (max_index > 0 &&
      (max_index - 1) * 8 > uint64_t{std::numeric_limits<int32_t>::max()}) {
    return Status::OutOfRange("slot offsets exceed disp32 addressing (" +
                              std::to_string(max_index) + " slots)");
  }

  X86Encoder enc;
  GeneratedCode out;
  out.entry_offsets.reserve(poly_count);
  for (size_t p = 0; p < poly_count; ++p) {
    out.entry_offsets.push_back(enc.size());
    EmitPolyBody(enc, csr, p);
    enc.Ret();
    if (enc.size() > max_code_bytes) {
      return Status::OutOfRange(
          "generated code exceeds the per-set cap (" +
          std::to_string(enc.size()) + " > " +
          std::to_string(max_code_bytes) + " bytes after polynomial " +
          std::to_string(p) + ")");
    }
  }
  // The full-set range function: every body again, results stored to
  // out[p] instead of returned. Roughly doubles the blob (still linear in
  // the set's factor count); the cap check continues per polynomial.
  out.range_entry = enc.size();
  for (size_t p = 0; p < poly_count; ++p) {
    EmitPolyBody(enc, csr, p);
    enc.MovsdStore(kOut, static_cast<int32_t>(uint64_t{p} * 8), kTotal);
    if (enc.size() > max_code_bytes) {
      return Status::OutOfRange(
          "generated code exceeds the per-set cap (" +
          std::to_string(enc.size()) + " > " + std::to_string(max_code_bytes) +
          " bytes in the range function at polynomial " + std::to_string(p) +
          ")");
    }
  }
  enc.Ret();
  out.code = enc.TakeCode();
  return out;
}

}  // namespace jit
}  // namespace provabs
