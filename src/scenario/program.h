#ifndef PROVABS_SCENARIO_PROGRAM_H_
#define PROVABS_SCENARIO_PROGRAM_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"
#include "core/compiled_polynomial_set.h"
#include "scenario/ast.h"

namespace provabs {
class VariableTable;
}  // namespace provabs

namespace provabs::scenario {

/// One stack-machine instruction of a lowered rule expression. Semantic
/// analysis flattens the typed AST into postfix ops so per-scenario
/// evaluation is a loop over a flat array — no tree walk, no allocation.
/// Booleans are represented as 0.0 / 1.0; AND/OR evaluate both operands
/// (expressions are pure, so eager evaluation is observationally identical
/// to short-circuit and keeps the op stream branch-free).
struct Op {
  enum Kind : uint8_t {
    kPushConst,
    kPushParam,
    kNeg,
    kNot,
    kAdd,
    kSub,
    kMul,
    kDiv,
    kLt,
    kLe,
    kGt,
    kGe,
    kEq,
    kNe,
    kAnd,
    kOr,
    kSelect,  ///< pops else, then, cond; pushes cond != 0 ? then : else
  };
  Kind kind = kPushConst;
  double constant = 0.0;  ///< kPushConst
  uint32_t param = 0;     ///< kPushParam: parameter index
};

/// A scenario program compiled against one CompiledPolynomialSet: parse +
/// type check + selector resolution done once, after which the scenario
/// family expands lazily in chunks of fingerprint-stamped DenseValuations
/// ready for EvaluateBatcher::EvaluateDense, which evaluates each chunk as
/// one batch of its full width.
///
/// Expansion semantics: the scenario space is the Cartesian product of the
/// LET parameter domains in declaration order, the LAST parameter varying
/// fastest (row-major). A program with no parameters is a single scenario.
/// For each scenario, every rule expression is evaluated once under the
/// parameter assignment; each variable takes the value of the FIRST rule
/// whose selector matches its name, or 1.0 if none does.
///
/// Instances are immutable after Compile and safe to share across threads;
/// the serving tier caches them in ArtifactStore keyed by (artifact
/// generation, source hash).
class ScenarioProgram {
 public:
  /// Parses `source` and analyzes it against `compiled`'s slot table
  /// (variable names resolved via `vars`, which must be the table the
  /// compiled set's VariableIds index into). All errors are
  /// kInvalidArgument with a byte offset in the message; `error_offset`
  /// (optional) receives the offset for caret diagnostics.
  static StatusOr<ScenarioProgram> Compile(
      std::string_view source,
      std::shared_ptr<const CompiledPolynomialSet> compiled,
      const VariableTable& vars, size_t* error_offset = nullptr);

  /// Total scenarios in the family (>= 1; Compile rejects empty domains).
  uint64_t scenario_count() const { return scenario_count_; }

  size_t param_count() const { return param_names_.size(); }
  const std::vector<std::string>& param_names() const { return param_names_; }
  size_t rule_count() const { return rules_.size(); }

  /// Parameter assignment of scenario `index` (mixed-radix decode of the
  /// Cartesian product, last parameter fastest), in declaration order.
  std::vector<double> ParamValues(uint64_t index) const;

  /// Expands scenarios [begin, end) into `out` (cleared first), each
  /// stamped with the compiled set's fingerprint. kOutOfRange if the range
  /// exceeds scenario_count().
  Status ExpandChunk(uint64_t begin, uint64_t end,
                     std::vector<DenseValuation>* out) const;

  /// The compiled set this program was analyzed against. Expansion and
  /// evaluation must both use this snapshot: its fingerprint is what the
  /// expanded valuations carry.
  const std::shared_ptr<const CompiledPolynomialSet>& compiled() const {
    return compiled_;
  }

  /// Rough resident size, for the serving layer's byte-budget accounting.
  size_t ApproxBytes() const;

 private:
  ScenarioProgram() = default;

  std::shared_ptr<const CompiledPolynomialSet> compiled_;
  std::vector<std::string> param_names_;         // declaration order
  std::vector<std::vector<double>> param_values_;  // domain per parameter
  std::vector<std::vector<Op>> rules_;           // lowered rule expressions
  std::vector<int32_t> slot_rule_;  // slot -> rule index, -1 = default 1.0
  uint64_t scenario_count_ = 1;
};

}  // namespace provabs::scenario

#endif  // PROVABS_SCENARIO_PROGRAM_H_
