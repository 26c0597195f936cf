#include "bfl/business_functions.h"

namespace poly {

void CurrencyConverter::AddRate(const std::string& from, const std::string& to,
                                int64_t valid_from, double rate) {
  rates_[{from, to}][valid_from] = rate;
}

StatusOr<double> CurrencyConverter::DirectRate(const std::string& from,
                                               const std::string& to,
                                               int64_t date) const {
  auto it = rates_.find({from, to});
  if (it == rates_.end()) return Status::NotFound("no rate " + from + "->" + to);
  // Latest entry with valid_from <= date.
  auto rate_it = it->second.upper_bound(date);
  if (rate_it == it->second.begin()) {
    return Status::NotFound("no rate " + from + "->" + to + " valid at date " +
                            std::to_string(date));
  }
  --rate_it;
  return rate_it->second;
}

StatusOr<double> CurrencyConverter::Rate(const std::string& from, const std::string& to,
                                         int64_t date, const std::string& reference) const {
  if (from == to) return 1.0;
  auto direct = DirectRate(from, to, date);
  if (direct.ok()) return direct;
  // Inverse.
  auto inverse = DirectRate(to, from, date);
  if (inverse.ok() && *inverse != 0) return 1.0 / *inverse;
  // Triangulate through the reference currency.
  if (from != reference && to != reference) {
    auto leg1 = Rate(from, reference, date, reference);
    auto leg2 = Rate(reference, to, date, reference);
    if (leg1.ok() && leg2.ok()) return *leg1 * *leg2;
  }
  return Status::NotFound("no conversion path " + from + "->" + to);
}

StatusOr<double> CurrencyConverter::Convert(double amount, const std::string& from,
                                            const std::string& to, int64_t date) const {
  POLY_ASSIGN_OR_RETURN(double rate, Rate(from, to, date));
  return amount * rate;
}

StatusOr<double> CurrencyConverter::ConvertedSum(const ColumnTable& table,
                                                 const ReadView& view,
                                                 const std::string& amount_column,
                                                 const std::string& currency_column,
                                                 const std::string& target,
                                                 int64_t date) const {
  POLY_ASSIGN_OR_RETURN(size_t amount_col, table.schema().IndexOf(amount_column));
  POLY_ASSIGN_OR_RETURN(size_t currency_col, table.schema().IndexOf(currency_column));
  // Rates resolved once per distinct currency, not once per row.
  std::map<std::string, double> rate_cache;
  double total = 0;
  Status status = Status::OK();
  ColumnTable::ReadGuard g(&table);
  g.ScanVisible(view, [&](uint64_t r) {
    if (!status.ok()) return;
    Value amount = g.GetValue(r, amount_col);
    Value currency = g.GetValue(r, currency_col);
    if (amount.is_null() || currency.is_null()) return;
    const std::string& code = currency.AsString();
    auto it = rate_cache.find(code);
    if (it == rate_cache.end()) {
      auto rate = Rate(code, target, date);
      if (!rate.ok()) {
        status = rate.status();
        return;
      }
      it = rate_cache.emplace(code, *rate).first;
    }
    total += amount.NumericValue() * it->second;
  });
  POLY_RETURN_IF_ERROR(status);
  return total;
}

void UnitConverter::AddUnit(const std::string& unit, const std::string& base_unit,
                            double factor) {
  units_[unit] = {base_unit, factor};
}

StatusOr<double> UnitConverter::Convert(double quantity, const std::string& from,
                                        const std::string& to) const {
  if (from == to) return quantity;
  auto f = units_.find(from);
  auto t = units_.find(to);
  if (f == units_.end()) return Status::NotFound("unknown unit " + from);
  if (t == units_.end()) return Status::NotFound("unknown unit " + to);
  if (f->second.base != t->second.base) {
    return Status::InvalidArgument("units " + from + " and " + to +
                                   " measure different dimensions");
  }
  return quantity * f->second.factor / t->second.factor;
}

bool FactoryCalendar::IsWorkingDay(int64_t day) const {
  // Day 0 = Thursday; weekday index with Monday = 0.
  int64_t weekday = ((day + 3) % 7 + 7) % 7;
  if (weekday >= 5) return false;  // Sat/Sun
  return holidays_.count(day) == 0;
}

int64_t FactoryCalendar::AddWorkingDays(int64_t day, int n) const {
  int64_t current = day;
  while (n > 0) {
    ++current;
    if (IsWorkingDay(current)) --n;
  }
  return current;
}

int64_t FactoryCalendar::CountWorkingDays(int64_t from, int64_t to) const {
  int64_t count = 0;
  for (int64_t d = from; d < to; ++d) {
    if (IsWorkingDay(d)) ++count;
  }
  return count;
}

}  // namespace poly
