// E3 (§II-A): "applying multiple compression techniques" — dictionary
// encoding + bit-packed value IDs vs a row store, and the SOE's relaxed
// reference compression (§IV-A) as the third point.
//
// Rows reproduced:
//   Compression_MemoryFootprint/<distinct>  - bytes/row column vs row store
//     (counters: col_bytes_per_row, row_bytes_per_row, ratio)
//   Compression_Scan_{Packed,Relaxed}       - scan speed of compressed vs
//     relaxed (64-bit) references: the energy/DRAM-traffic trade the SOE
//     makes the other way.

#include <benchmark/benchmark.h>

#include "workloads.h"

namespace poly {
namespace {

void Compression_MemoryFootprint(benchmark::State& state) {
  int64_t distinct = state.range(0);
  const int kRows = 50000;
  Database db;
  TransactionManager tm;
  ColumnTable* col = *db.CreateTable(
      "col", Schema({ColumnDef("city", DataType::kString)}));
  RowTable* row = *db.CreateRowTable(
      "row", Schema({ColumnDef("city", DataType::kString)}));
  Random rng(3);
  auto txn = tm.Begin();
  for (int i = 0; i < kRows; ++i) {
    Row r = {Value::Str("city_of_somewhere_" + std::to_string(rng.Uniform(distinct)))};
    (void)tm.Insert(txn.get(), col, r);
    (void)tm.Insert(txn.get(), row, r);
  }
  (void)tm.Commit(txn.get());
  col->Merge();

  for (auto _ : state) {
    benchmark::DoNotOptimize(col->MemoryBytes());
  }
  double col_bytes = static_cast<double>(col->MemoryBytes());
  double row_bytes = static_cast<double>(row->MemoryBytes());
  state.counters["col_bytes_per_row"] = col_bytes / kRows;
  state.counters["row_bytes_per_row"] = row_bytes / kRows;
  state.counters["compression_ratio"] = row_bytes / col_bytes;
}
BENCHMARK(Compression_MemoryFootprint)->Arg(16)->Arg(256)->Arg(4096)->Arg(50000);

void ScanBenchmark(benchmark::State& state, bool compress_main) {
  const int kRows = 200000;
  ColumnTable t("t", Schema({ColumnDef("v", DataType::kInt64)}), compress_main);
  Random rng(7);
  for (int i = 0; i < kRows; ++i) {
    (void)t.AppendVersion({Value::Int(static_cast<int64_t>(rng.Uniform(1024)))}, 1);
  }
  t.Merge();
  ColumnTable::ReadGuard g(&t);
  const Column::Reader& col = g.col(0);
  std::vector<uint64_t> buffer(4096);
  for (auto _ : state) {
    uint64_t sum = 0;
    for (uint64_t begin = 0; begin < col.main_size(); begin += buffer.size()) {
      uint64_t end = std::min<uint64_t>(col.main_size(), begin + buffer.size());
      col.DecodeMainIds(begin, end, buffer.data());
      for (uint64_t i = 0; i < end - begin; ++i) sum += buffer[i];
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kRows);
  state.counters["bytes_per_row"] =
      static_cast<double>(t.MemoryBytes()) / kRows;
}

void Compression_Scan_Packed(benchmark::State& state) {
  ScanBenchmark(state, /*compress_main=*/true);
}
BENCHMARK(Compression_Scan_Packed);

void Compression_Scan_Relaxed(benchmark::State& state) {
  ScanBenchmark(state, /*compress_main=*/false);  // the SOE trade (§IV-A)
}
BENCHMARK(Compression_Scan_Relaxed);

}  // namespace
}  // namespace poly
