#ifndef POLY_QUERY_EXPR_H_
#define POLY_QUERY_EXPR_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "types/schema.h"

namespace poly {

/// Comparison operators for predicates.
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// Expression node kinds.
enum class ExprKind {
  kColumn,      ///< reference to input column by position
  kLiteral,     ///< constant Value
  kCompare,     ///< lhs <op> rhs -> bool
  kAnd,
  kOr,
  kNot,
  kArithmetic,  ///< + - * / on numerics
  kLike,        ///< string LIKE pattern
  kIn,          ///< lhs IN (literal list)
  kIsNull,
};

enum class ArithOp { kAdd, kSub, kMul, kDiv };

/// Immutable expression tree evaluated against a Row. Built with the
/// factory helpers below; shared_ptr nodes so plans can share subtrees.
class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

class Expr {
 public:
  /// Factories.
  static ExprPtr Column(size_t index);
  static ExprPtr Literal(Value v);
  static ExprPtr Compare(CmpOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr And(ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Or(ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Not(ExprPtr e);
  static ExprPtr Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Like(ExprPtr input, std::string pattern);
  static ExprPtr In(ExprPtr input, std::vector<Value> candidates);
  static ExprPtr IsNull(ExprPtr input);

  /// Evaluates against a materialized row.
  Value Eval(const Row& row) const;
  /// Convenience: Eval and coerce to bool (null/non-bool -> false).
  bool EvalBool(const Row& row) const;

  ExprKind kind() const { return kind_; }
  size_t column_index() const { return column_index_; }
  const Value& literal() const { return literal_; }
  CmpOp cmp_op() const { return cmp_op_; }
  ArithOp arith_op() const { return arith_op_; }
  const std::string& pattern() const { return pattern_; }
  const std::vector<Value>& candidates() const { return candidates_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }

  /// Highest column index referenced, or -1 if none (for binding checks).
  int MaxColumnIndex() const;
  /// Adds every column index referenced to `out`.
  void CollectColumns(std::set<size_t>* out) const;

  std::string ToString() const;

 private:
  explicit Expr(ExprKind kind) : kind_(kind) {}

  ExprKind kind_;
  size_t column_index_ = 0;
  Value literal_;
  CmpOp cmp_op_ = CmpOp::kEq;
  ArithOp arith_op_ = ArithOp::kAdd;
  std::string pattern_;
  std::vector<Value> candidates_;
  ExprPtr left_;
  ExprPtr right_;
};

/// True when `cmp` holds between two values (uses Value's total order with
/// numeric cross-type comparison; an int/double mix is also equal by
/// numeric value, as in every main-store dictionary).
bool CompareValues(CmpOp op, const Value& lhs, const Value& rhs);

/// Copy of `e` with every column reference $i rewritten to $map[i]; every
/// referenced column must have an entry. Moves expressions between row
/// layouts (a join input's schema, a pruned scan's emitted columns).
ExprPtr RemapColumns(const ExprPtr& e, const std::vector<size_t>& map);

}  // namespace poly

#endif  // POLY_QUERY_EXPR_H_
