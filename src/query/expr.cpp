#include "query/expr.h"

#include <algorithm>

#include "common/string_util.h"

namespace poly {

ExprPtr Expr::Column(size_t index) {
  auto e = std::shared_ptr<Expr>(new Expr(ExprKind::kColumn));
  e->column_index_ = index;
  return e;
}

ExprPtr Expr::Literal(Value v) {
  auto e = std::shared_ptr<Expr>(new Expr(ExprKind::kLiteral));
  e->literal_ = std::move(v);
  return e;
}

ExprPtr Expr::Compare(CmpOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::shared_ptr<Expr>(new Expr(ExprKind::kCompare));
  e->cmp_op_ = op;
  e->left_ = std::move(lhs);
  e->right_ = std::move(rhs);
  return e;
}

ExprPtr Expr::And(ExprPtr lhs, ExprPtr rhs) {
  auto e = std::shared_ptr<Expr>(new Expr(ExprKind::kAnd));
  e->left_ = std::move(lhs);
  e->right_ = std::move(rhs);
  return e;
}

ExprPtr Expr::Or(ExprPtr lhs, ExprPtr rhs) {
  auto e = std::shared_ptr<Expr>(new Expr(ExprKind::kOr));
  e->left_ = std::move(lhs);
  e->right_ = std::move(rhs);
  return e;
}

ExprPtr Expr::Not(ExprPtr in) {
  auto e = std::shared_ptr<Expr>(new Expr(ExprKind::kNot));
  e->left_ = std::move(in);
  return e;
}

ExprPtr Expr::Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::shared_ptr<Expr>(new Expr(ExprKind::kArithmetic));
  e->arith_op_ = op;
  e->left_ = std::move(lhs);
  e->right_ = std::move(rhs);
  return e;
}

ExprPtr Expr::Like(ExprPtr input, std::string pattern) {
  auto e = std::shared_ptr<Expr>(new Expr(ExprKind::kLike));
  e->left_ = std::move(input);
  e->pattern_ = std::move(pattern);
  return e;
}

ExprPtr Expr::In(ExprPtr input, std::vector<Value> candidates) {
  auto e = std::shared_ptr<Expr>(new Expr(ExprKind::kIn));
  e->left_ = std::move(input);
  e->candidates_ = std::move(candidates);
  return e;
}

ExprPtr Expr::IsNull(ExprPtr input) {
  auto e = std::shared_ptr<Expr>(new Expr(ExprKind::kIsNull));
  e->left_ = std::move(input);
  return e;
}

namespace {

bool IsIntOrDouble(const Value& v) {
  return v.type() == DataType::kInt64 || v.type() == DataType::kDouble;
}

/// Equality consistent with Value's order: 5 = 5.0, as the dictionary
/// lookup of an id-range scan finds it.
bool ValuesEqual(const Value& lhs, const Value& rhs) {
  if (lhs.type() != rhs.type() && IsIntOrDouble(lhs) && IsIntOrDouble(rhs)) {
    return lhs.NumericValue() == rhs.NumericValue();
  }
  return lhs == rhs;
}

}  // namespace

bool CompareValues(CmpOp op, const Value& lhs, const Value& rhs) {
  switch (op) {
    case CmpOp::kEq: return ValuesEqual(lhs, rhs);
    case CmpOp::kNe: return !ValuesEqual(lhs, rhs);
    case CmpOp::kLt: return lhs < rhs;
    case CmpOp::kLe: return !(rhs < lhs);
    case CmpOp::kGt: return rhs < lhs;
    case CmpOp::kGe: return !(lhs < rhs);
  }
  return false;
}

Value Expr::Eval(const Row& row) const {
  switch (kind_) {
    case ExprKind::kColumn:
      return column_index_ < row.size() ? row[column_index_] : Value::Null();
    case ExprKind::kLiteral:
      return literal_;
    case ExprKind::kCompare: {
      Value l = left_->Eval(row);
      Value r = right_->Eval(row);
      if (l.is_null() || r.is_null()) return Value::Null();
      return Value::Boolean(CompareValues(cmp_op_, l, r));
    }
    case ExprKind::kAnd: {
      // SQL three-valued logic collapsed to two-valued: null counts false.
      return Value::Boolean(left_->EvalBool(row) && right_->EvalBool(row));
    }
    case ExprKind::kOr:
      return Value::Boolean(left_->EvalBool(row) || right_->EvalBool(row));
    case ExprKind::kNot:
      return Value::Boolean(!left_->EvalBool(row));
    case ExprKind::kArithmetic: {
      Value l = left_->Eval(row);
      Value r = right_->Eval(row);
      if (l.is_null() || r.is_null()) return Value::Null();
      bool both_int = l.type() == DataType::kInt64 && r.type() == DataType::kInt64;
      double a = l.NumericValue(), b = r.NumericValue();
      switch (arith_op_) {
        case ArithOp::kAdd:
          return both_int ? Value::Int(l.AsInt() + r.AsInt()) : Value::Dbl(a + b);
        case ArithOp::kSub:
          return both_int ? Value::Int(l.AsInt() - r.AsInt()) : Value::Dbl(a - b);
        case ArithOp::kMul:
          return both_int ? Value::Int(l.AsInt() * r.AsInt()) : Value::Dbl(a * b);
        case ArithOp::kDiv:
          if (b == 0) return Value::Null();
          return Value::Dbl(a / b);
      }
      return Value::Null();
    }
    case ExprKind::kLike: {
      Value v = left_->Eval(row);
      if (v.type() != DataType::kString && v.type() != DataType::kDocument) {
        return Value::Null();
      }
      return Value::Boolean(LikeMatch(v.AsString(), pattern_));
    }
    case ExprKind::kIn: {
      Value v = left_->Eval(row);
      if (v.is_null()) return Value::Null();
      return Value::Boolean(std::find(candidates_.begin(), candidates_.end(), v) !=
                            candidates_.end());
    }
    case ExprKind::kIsNull:
      return Value::Boolean(left_->Eval(row).is_null());
  }
  return Value::Null();
}

bool Expr::EvalBool(const Row& row) const {
  Value v = Eval(row);
  return v.type() == DataType::kBool && v.AsBool();
}

int Expr::MaxColumnIndex() const {
  int max_idx = kind_ == ExprKind::kColumn ? static_cast<int>(column_index_) : -1;
  if (left_) max_idx = std::max(max_idx, left_->MaxColumnIndex());
  if (right_) max_idx = std::max(max_idx, right_->MaxColumnIndex());
  return max_idx;
}

void Expr::CollectColumns(std::set<size_t>* out) const {
  if (kind_ == ExprKind::kColumn) out->insert(column_index_);
  if (left_) left_->CollectColumns(out);
  if (right_) right_->CollectColumns(out);
}

ExprPtr RemapColumns(const ExprPtr& e, const std::vector<size_t>& map) {
  if (!e) return e;
  switch (e->kind()) {
    case ExprKind::kColumn:
      return Expr::Column(map[e->column_index()]);
    case ExprKind::kLiteral:
      return e;
    case ExprKind::kCompare:
      return Expr::Compare(e->cmp_op(), RemapColumns(e->left(), map),
                           RemapColumns(e->right(), map));
    case ExprKind::kAnd:
      return Expr::And(RemapColumns(e->left(), map), RemapColumns(e->right(), map));
    case ExprKind::kOr:
      return Expr::Or(RemapColumns(e->left(), map), RemapColumns(e->right(), map));
    case ExprKind::kNot:
      return Expr::Not(RemapColumns(e->left(), map));
    case ExprKind::kArithmetic:
      return Expr::Arith(e->arith_op(), RemapColumns(e->left(), map),
                         RemapColumns(e->right(), map));
    case ExprKind::kLike:
      return Expr::Like(RemapColumns(e->left(), map), e->pattern());
    case ExprKind::kIn:
      return Expr::In(RemapColumns(e->left(), map), e->candidates());
    case ExprKind::kIsNull:
      return Expr::IsNull(RemapColumns(e->left(), map));
  }
  return e;
}

std::string Expr::ToString() const {
  switch (kind_) {
    case ExprKind::kColumn: return "$" + std::to_string(column_index_);
    case ExprKind::kLiteral: return literal_.ToString();
    case ExprKind::kCompare: {
      static const char* names[] = {"=", "!=", "<", "<=", ">", ">="};
      return "(" + left_->ToString() + " " + names[static_cast<int>(cmp_op_)] + " " +
             right_->ToString() + ")";
    }
    case ExprKind::kAnd: return "(" + left_->ToString() + " AND " + right_->ToString() + ")";
    case ExprKind::kOr: return "(" + left_->ToString() + " OR " + right_->ToString() + ")";
    case ExprKind::kNot: return "NOT " + left_->ToString();
    case ExprKind::kArithmetic: {
      static const char* names[] = {"+", "-", "*", "/"};
      return "(" + left_->ToString() + " " + names[static_cast<int>(arith_op_)] + " " +
             right_->ToString() + ")";
    }
    case ExprKind::kLike: return left_->ToString() + " LIKE '" + pattern_ + "'";
    case ExprKind::kIn: {
      std::string out = left_->ToString() + " IN (";
      for (size_t i = 0; i < candidates_.size(); ++i) {
        if (i) out += ", ";
        out += candidates_[i].ToString();
      }
      return out + ")";
    }
    case ExprKind::kIsNull: return left_->ToString() + " IS NULL";
  }
  return "?";
}

}  // namespace poly
