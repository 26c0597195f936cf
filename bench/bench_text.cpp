// E4 (§II-C): text search "we all know from web search engines" deep in the
// engine, plus the combination of text hits with structured predicates.
//
// Rows reproduced:
//   Text_FullScanLike/<docs>      - relational baseline: LIKE '%pump%'
//   Text_InvertedIndex/<docs>     - BM25 search over the same corpus
//   Text_IndexBuild/<docs>        - indexing throughput (the "automatic
//                                   trigger" cost on document ingest)
//   Text_CombinedQuery/<docs>     - text hits joined with a structured
//                                   predicate (site id range)
// Expected shape: index search beats LIKE by orders of magnitude; combined
// query stays near index-search cost.

#include <benchmark/benchmark.h>

#include "engines/text/text_engine.h"
#include "query/executor.h"
#include "workloads.h"

namespace poly {
namespace {

struct TextSetup {
  Database db;
  TransactionManager tm;
  ColumnTable* docs;

  explicit TextSetup(int n) {
    docs = *db.CreateTable("docs", Schema({ColumnDef("id", DataType::kInt64),
                                           ColumnDef("site", DataType::kInt64),
                                           ColumnDef("body", DataType::kString)}));
    auto corpus = bench::DocumentCorpus(n, 23);
    auto txn = tm.Begin();
    Random rng(29);
    for (int i = 0; i < n; ++i) {
      (void)tm.Insert(txn.get(), docs,
                      {Value::Int(i), Value::Int(static_cast<int64_t>(rng.Uniform(100))),
                       Value::Str(corpus[i])});
    }
    (void)tm.Commit(txn.get());
    docs->Merge();
  }
};

void Text_FullScanLike(benchmark::State& state) {
  TextSetup setup(static_cast<int>(state.range(0)));
  auto plan = PlanBuilder::Scan("docs")
                  .Filter(Expr::Like(Expr::Column(2), "%pump%"))
                  .Build();
  size_t hits = 0;
  for (auto _ : state) {
    Executor exec(&setup.db, setup.tm.AutoCommitView());
    hits = exec.Execute(plan)->num_rows();
    benchmark::DoNotOptimize(hits);
  }
  state.counters["hits"] = static_cast<double>(hits);
}
BENCHMARK(Text_FullScanLike)->Arg(2000)->Arg(20000)->Unit(benchmark::kMicrosecond);

void Text_InvertedIndex(benchmark::State& state) {
  TextSetup setup(static_cast<int>(state.range(0)));
  TextEngine engine = *TextEngine::Create(setup.docs, "body");
  engine.Refresh();
  size_t hits = 0;
  for (auto _ : state) {
    hits = engine.Search("pump", 1u << 30).size();
    benchmark::DoNotOptimize(hits);
  }
  state.counters["hits"] = static_cast<double>(hits);
}
BENCHMARK(Text_InvertedIndex)->Arg(2000)->Arg(20000)->Unit(benchmark::kMicrosecond);

void Text_IndexBuild(benchmark::State& state) {
  TextSetup setup(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    TextEngine engine = *TextEngine::Create(setup.docs, "body");
    benchmark::DoNotOptimize(engine.Refresh());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(Text_IndexBuild)->Arg(2000)->Arg(20000)->Unit(benchmark::kMillisecond);

void Text_CombinedQuery(benchmark::State& state) {
  // "results of text analytics can now be combined with structured data":
  // pump-failure docs from low-numbered sites.
  TextSetup setup(static_cast<int>(state.range(0)));
  TextEngine engine = *TextEngine::Create(setup.docs, "body");
  engine.Refresh();
  size_t hits = 0;
  for (auto _ : state) {
    size_t count = 0;
    ReadView now = setup.tm.AutoCommitView();
    ColumnTable::ReadGuard g(setup.docs);
    for (const SearchHit& hit : engine.SearchAll("pump failed", 1u << 30)) {
      if (!now.RowVisible(g.cts(hit.doc_id), g.dts(hit.doc_id))) continue;
      if (g.GetValue(hit.doc_id, 1).AsInt() < 20) ++count;
    }
    hits = count;
    benchmark::DoNotOptimize(hits);
  }
  state.counters["hits"] = static_cast<double>(hits);
}
BENCHMARK(Text_CombinedQuery)->Arg(20000)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace poly
