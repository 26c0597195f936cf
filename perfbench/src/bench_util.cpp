#include "bench_util.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/random.h"

namespace polybench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

double Quantile(std::vector<uint64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) * (1 - frac) + static_cast<double>(v[hi]) * frac;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Quantile(const std::vector<Sample>& samples, double q) {
  std::vector<uint64_t> dt;
  dt.reserve(samples.size());
  for (const Sample& s : samples) dt.push_back(s.dt_ns);
  return Quantile(std::move(dt), q);
}

namespace {

int WindowOf(uint64_t end_ns, const LoopTotals& loop) {
  if (loop.wall_ns == 0 || end_ns <= loop.start_ns) return 0;
  const double share = static_cast<double>(end_ns - loop.start_ns) / loop.wall_ns;
  return std::min(kWindows - 1, static_cast<int>(share * kWindows));
}

}  // namespace

double WindowedRate(const LoopTotals& loop) {
  std::vector<double> ops(kWindows, 0);
  for (uint64_t end : loop.end_ns) ++ops[WindowOf(end, loop)];
  const double window_s = loop.wall_ns / 1e9 / kWindows;
  for (double& n : ops) n /= window_s;
  return Median(std::move(ops));
}

double WindowedQuantile(const std::vector<Sample>& samples, double q, const LoopTotals& loop) {
  std::vector<std::vector<uint64_t>> windows(kWindows);
  for (const Sample& s : samples) windows[WindowOf(s.end_ns, loop)].push_back(s.dt_ns);
  std::vector<double> per_window;
  for (auto& w : windows) {
    if (!w.empty()) per_window.push_back(Quantile(std::move(w), q));
  }
  return Median(std::move(per_window));
}

// ---- Report ---------------------------------------------------------------

void Report::Metric(const std::string& name, double value, const std::string& unit,
                    bool end_to_end) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  std::cout << "metric " << name << " " << buf << " " << unit << "\n";
  if (end_to_end) json_.push_back({name, {value, unit}});
}

void Report::Info(const std::string& line) { std::cout << "# " << line << "\n"; }

void Report::Finish(bool correct, uint64_t attempted, uint64_t failed) const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < json_.size(); ++i) {
    if (i) out << ", ";
    out << "\"" << json_[i].first << "\": {\"value\": " << json_[i].second.first
        << ", \"unit\": \"" << json_[i].second.second << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

// ---- closed loop ----------------------------------------------------------

LoopTotals RunClosedLoop(const RunConfig& cfg, int clients, const ClientOp& op) {
  // Traced and untraced operations alternate in blocks of 8 per client;
  // statement rotations even out over many blocks, so both phases see the
  // same statements and the same data.
  constexpr uint64_t kBlock = 8;
  const uint64_t run_ns = static_cast<uint64_t>(cfg.seconds * 1e9);
  std::vector<LoopTotals> per_client(clients);
  const uint64_t start = NowNs();
  auto client = [&](int c) {
    LoopTotals& t = per_client[c];
    for (uint64_t i = 0;; ++i) {
      if (cfg.ops ? i >= cfg.ops : NowNs() - start >= run_ns) break;
      const bool traced = cfg.trace && (i / kBlock) % 2 == 1;
      t.busy_ns[traced] += op(c, i, traced);
      ++t.ops[traced];
      t.end_ns.push_back(NowNs());
    }
  };
  std::vector<std::thread> threads;
  for (int c = 1; c < clients; ++c) threads.emplace_back(client, c);
  client(0);
  for (auto& th : threads) th.join();
  LoopTotals total;
  total.start_ns = start;
  total.wall_ns = NowNs() - start;
  for (const LoopTotals& t : per_client) {
    for (int p = 0; p < 2; ++p) {
      total.ops[p] += t.ops[p];
      total.busy_ns[p] += t.busy_ns[p];
    }
    total.end_ns.insert(total.end_ns.end(), t.end_ns.begin(), t.end_ns.end());
  }
  return total;
}

std::vector<int> SeededPermutation(int n, uint64_t seed) {
  std::vector<int> out(n);
  for (int i = 0; i < n; ++i) out[i] = i;
  poly::Random rng(seed);
  for (int i = n - 1; i > 0; --i) {
    std::swap(out[i], out[rng.Uniform(static_cast<uint64_t>(i) + 1)]);
  }
  return out;
}

// ---- orders ---------------------------------------------------------------

const char* const kRegions[6] = {"north", "south", "east", "west", "center", "overseas"};

poly::Schema OrdersSchema() {
  using poly::ColumnDef;
  using poly::DataType;
  return poly::Schema({ColumnDef("o_id", DataType::kInt64),
                       ColumnDef("customer", DataType::kInt64),
                       ColumnDef("region", DataType::kString),
                       ColumnDef("amount", DataType::kDouble),
                       ColumnDef("qty", DataType::kInt64),
                       ColumnDef("year", DataType::kInt64)});
}

Row Order::ToRow() const {
  return {Value::Int(id),     Value::Int(customer), Value::Str(kRegions[region]),
          Value::Dbl(amount), Value::Int(qty),      Value::Int(year)};
}

namespace {

Order OrderFrom(int64_t id, int64_t customer, poly::Random* rng) {
  Order o;
  o.id = id;
  o.customer = customer;
  o.region = static_cast<int>(rng->Uniform(6));
  o.amount = 0.25 * static_cast<double>(rng->UniformRange(4, 4000));
  o.qty = rng->UniformRange(1, 50);
  o.year = rng->UniformRange(2020, 2026);
  return o;
}

}  // namespace

std::vector<Order> GenerateOrders(size_t n, uint64_t seed) {
  poly::Random rng(poly::Random::Mix(seed, 1));
  poly::ZipfGenerator customers(kCustomers, 0.99, poly::Random::Mix(seed, 2));
  std::vector<Order> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(OrderFrom(static_cast<int64_t>(i),
                            static_cast<int64_t>(customers.Next()), &rng));
  }
  return out;
}

Order InsertedOrder(int64_t id, uint64_t seed) {
  poly::Random rng(poly::Random::Mix(seed ^ 0x5eed, static_cast<uint64_t>(id)));
  int64_t customer = static_cast<int64_t>(rng.Uniform(kCustomers));
  return OrderFrom(id, customer, &rng);
}

poly::ColumnTable* BulkLoad(poly::Database* db, const std::string& name,
                            poly::Schema schema, const std::vector<Row>& rows) {
  auto table = db->CreateTable(name, std::move(schema));
  if (!table.ok()) return nullptr;
  for (const Row& row : rows) {
    if (!(*table)->AppendVersion(row, /*cts_stamp=*/1).ok()) return nullptr;
  }
  (*table)->Merge();
  return *table;
}

// ---- result checking ------------------------------------------------------

bool SameValue(const Value& a, const Value& b) {
  if (a == b) return true;
  if (a.is_null() || b.is_null()) return false;
  using poly::DataType;
  auto numeric = [](const Value& v) {
    return v.type() == DataType::kInt64 || v.type() == DataType::kDouble;
  };
  if (!numeric(a) || !numeric(b)) return false;
  double x = a.NumericValue();
  double y = b.NumericValue();
  return std::fabs(x - y) <= 1e-9 * std::max({1.0, std::fabs(x), std::fabs(y)});
}

bool SameRows(std::vector<Row> got, std::vector<Row> want, bool ordered) {
  if (got.size() != want.size()) return false;
  if (!ordered) {
    auto less = [](const Row& a, const Row& b) {
      return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
    };
    std::sort(got.begin(), got.end(), less);
    std::sort(want.begin(), want.end(), less);
  }
  for (size_t r = 0; r < got.size(); ++r) {
    if (got[r].size() != want[r].size()) return false;
    for (size_t c = 0; c < got[r].size(); ++c) {
      if (!SameValue(got[r][c], want[r][c])) return false;
    }
  }
  return true;
}

}  // namespace polybench
