// Scenario V-1 from the paper: "financial analysts storing stock price data
// within a RDBMS require on the one hand the business context of stock
// values, e.g., an excerpt for recent news [...] On the other hand, the
// analysts use statistical algorithms for example to identify correlations
// of stocks and derivatives."
//
//  * daily prices live in the column store,
//  * the scientific engine builds the return-correlation matrix in the
//    database and extracts the dominant market mode by power iteration —
//    no copy-out to an external package (the §II-G claim; the external
//    provider's transfer tax is printed for contrast),
//  * the text engine scores news sentiment and joins it with the
//    statistical picture.

#include <cmath>
#include <cstdio>
#include <vector>

#include "common/random.h"
#include "engines/scientific/matrix.h"
#include "engines/text/text_analysis.h"
#include "engines/timeseries/ts_ops.h"
#include "txn/transaction_manager.h"

using namespace poly;

int main() {
  Database db;
  TransactionManager tm;
  Random rng(99);

  const int kStocks = 8, kDays = 250;
  const char* tickers[] = {"AAA", "BBB", "CCC", "DDD", "EEE", "FFF", "GGG", "HHH"};

  // ---- Price table in the relational engine ----
  ColumnTable* prices = *db.CreateTable(
      "prices", Schema({ColumnDef("stock", DataType::kInt64),
                        ColumnDef("day", DataType::kInt64),
                        ColumnDef("close", DataType::kDouble)}));
  {
    auto txn = tm.Begin();
    std::vector<double> level(kStocks, 100.0);
    for (int d = 0; d < kDays; ++d) {
      double market = rng.NextGaussian() * 0.01;  // shared market factor
      for (int s = 0; s < kStocks; ++s) {
        double beta = 0.5 + 0.15 * s;  // different market exposure
        double idio = rng.NextGaussian() * 0.01;
        level[s] *= 1.0 + beta * market + idio;
        (void)tm.Insert(txn.get(), prices,
                        {Value::Int(s), Value::Int(d), Value::Dbl(level[s])});
      }
    }
    (void)tm.Commit(txn.get());
    prices->Merge();
  }
  ReadView now = tm.AutoCommitView();
  std::printf("price table: %llu rows (merged, %zu bytes)\n",
              static_cast<unsigned long long>(prices->Read().CountVisible(now)),
              prices->MemoryBytes());

  // ---- Daily returns per stock via the time-series engine ----
  std::vector<TimeSeries> returns(kStocks);
  for (int s = 0; s < kStocks; ++s) {
    TimeSeries px = *SeriesFromTable(*prices, now, "day", "close", "stock", s);
    TimeSeries diff = Difference(px);
    for (size_t i = 0; i < diff.size(); ++i) {
      diff.values[i] /= px.values[i];  // relative return
    }
    returns[s] = std::move(diff);
  }

  // ---- Correlation matrix, stored as a relational triple table ----
  ColumnTable* corr_table = *db.CreateTable(
      "correlations", Schema({ColumnDef("r", DataType::kInt64),
                              ColumnDef("c", DataType::kInt64),
                              ColumnDef("v", DataType::kDouble)}));
  {
    auto txn = tm.Begin();
    for (int a = 0; a < kStocks; ++a) {
      for (int b = 0; b < kStocks; ++b) {
        double corr = a == b ? 1.0 : Correlation(returns[a], returns[b], 1);
        (void)tm.Insert(txn.get(), corr_table,
                        {Value::Int(a), Value::Int(b), Value::Dbl(corr)});
      }
    }
    (void)tm.Commit(txn.get());
  }
  std::printf("correlation matrix materialized as a %dx%d triple table\n", kStocks,
              kStocks);

  // ---- Scientific engine: dominant eigenvector = market mode ----
  CsrMatrix corr = *CsrMatrix::FromTable(*corr_table, tm.AutoCommitView(), "r", "c", "v");
  std::vector<double> mode;
  double lambda = *corr.PowerIteration(1000, 1e-10, &mode);
  std::printf("dominant eigenvalue %.2f (market mode explains %.0f%% of %d)\n", lambda,
              100.0 * lambda / kStocks, kStocks);
  std::printf("market-mode loadings: ");
  for (int s = 0; s < kStocks; ++s) std::printf("%s=%.2f ", tickers[s], mode[s]);
  std::printf("\n");

  // ---- The copy-out alternative the paper argues against ----
  ExternalAnalyticsProvider r_provider(100e6);  // 100 MB/s link to "R"
  std::vector<double> x(kStocks, 1.0);
  for (int iter = 0; iter < 1000; ++iter) {
    x = *r_provider.MultiplyVector(corr, x);  // each iteration re-ships data
    double norm = 0;
    for (double v : x) norm += v * v;
    for (double& v : x) v /= std::sqrt(norm);
  }
  std::printf("external provider would have shipped %llu bytes (%.1f ms of pure "
              "transfer) for the same iteration\n",
              static_cast<unsigned long long>(r_provider.bytes_transferred()),
              r_provider.transfer_seconds() * 1e3);

  // ---- News sentiment joined with the statistics ----
  struct News {
    int stock;
    const char* text;
  };
  News feed[] = {
      {0, "AAA reports excellent quarter, reliable growth and great outlook"},
      {2, "CCC hit by terrible supply problems, production broken for weeks"},
      {5, "FFF announces new product line"},
  };
  std::printf("\nnews desk:\n");
  for (const News& n : feed) {
    double sentiment = SentimentScore(n.text);
    const char* stance = sentiment > 0.2 ? "BUY" : sentiment < -0.2 ? "SELL" : "HOLD";
    std::printf("  %s: sentiment %+.2f, market beta %.2f -> %s\n", tickers[n.stock],
                sentiment, 0.5 + 0.15 * n.stock, stance);
  }

  std::printf("\nscenario complete: linear algebra + time series + text, one system.\n");
  return 0;
}
