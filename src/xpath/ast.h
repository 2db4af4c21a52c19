#ifndef CSXA_XPATH_AST_H_
#define CSXA_XPATH_AST_H_

#include <string>
#include <vector>

namespace csxa::xpath {

/// Axis linking a step to the previous one. The paper's fragment XP{[],*,//}
/// supports only child (`/`) and descendant-or-self-based descendant (`//`).
enum class Axis {
  kChild,       ///< `/`
  kDescendant,  ///< `//`
};

/// Comparison operator at the end of a predicate path. kExists corresponds
/// to a bare existence predicate like `[Protocol]`.
enum class CompareOp {
  kExists,
  kEq,   ///< `=`
  kNe,   ///< `!=`
  kLt,   ///< `<`
  kLe,   ///< `<=`
  kGt,   ///< `>`
  kGe,   ///< `>=`
};

const char* CompareOpName(CompareOp op);

/// Compares a node's string value against a literal using XPath-like
/// coercion: numeric comparison when both sides parse as numbers, string
/// comparison otherwise.
bool EvalCompare(CompareOp op, const std::string& node_value,
                 const std::string& literal);

struct Step;

/// Relative path inside a predicate, optionally ending with a comparison:
/// `[MedActs//RPhys = USER]`, `[Protocol]`, `[//Cholesterol > 250]`.
struct Predicate {
  /// Steps of the predicate path, relative to the step it decorates. The
  /// first step's axis may be kChild (`[a...]`) or kDescendant (`[//a...]`).
  std::vector<Step> steps;
  CompareOp op = CompareOp::kExists;
  std::string literal;  ///< Right-hand side when op != kExists.

  std::string ToString() const;
};

/// One location step: axis, node test (name or wildcard) and predicates.
struct Step {
  Axis axis = Axis::kChild;
  std::string name;      ///< Element name; empty when wildcard is true.
  bool wildcard = false; ///< `*`.
  std::vector<Predicate> predicates;

  std::string ToString() const;
};

/// An absolute XPath expression in XP{[],*,//}: `/a/b[c=1]//d`.
struct Path {
  std::vector<Step> steps;

  std::string ToString() const;

  /// Total number of predicates, including predicates nested in predicate
  /// paths (used by the rule generator and complexity accounting).
  size_t CountPredicates() const;

  /// True if any step (or nested predicate step) uses the descendant axis.
  bool UsesDescendantAxis() const;
};

}  // namespace csxa::xpath

#endif  // CSXA_XPATH_AST_H_
