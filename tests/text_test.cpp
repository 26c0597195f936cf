#include <gtest/gtest.h>

#include <algorithm>

#include "engines/text/text_engine.h"
#include "storage/database.h"
#include "txn/transaction_manager.h"

namespace poly {
namespace {

TEST(TokenizerTest, LowercasesAndSplits) {
  TokenizerOptions opts;
  opts.remove_stopwords = false;
  opts.stem = false;
  auto tokens = Tokenize("Hello, World! 42 times", opts);
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0], "hello");
  EXPECT_EQ(tokens[1], "world");
  EXPECT_EQ(tokens[2], "42");
}

TEST(TokenizerTest, RemovesStopwords) {
  auto tokens = Tokenize("the quick fox and the dog");
  for (const auto& t : tokens) {
    EXPECT_NE(t, "the");
    EXPECT_NE(t, "and");
  }
}

TEST(TokenizerTest, StemsSuffixFamilies) {
  EXPECT_EQ(StemWord("sensors"), "sensor");
  EXPECT_EQ(StemWord("companies"), "company");
  EXPECT_EQ(StemWord("classes"), "class");
  EXPECT_EQ(StemWord("planning"), "plan");
  EXPECT_EQ(StemWord("glass"), "glass");
  // Same stem across inflections is what search needs.
  EXPECT_EQ(StemWord("merged"), StemWord("merges"));
}

TEST(TokenizerTest, MinLengthFilter) {
  TokenizerOptions opts;
  opts.remove_stopwords = false;
  opts.stem = false;
  opts.min_token_length = 3;
  auto tokens = Tokenize("a bb ccc dddd", opts);
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0], "ccc");
}

TEST(InvertedIndexTest, SearchRanksRelevantDocsFirst) {
  InvertedIndex idx;
  idx.AddDocument(1, "the gas pipeline leaked near the station");
  idx.AddDocument(2, "pipeline pipeline pipeline maintenance schedule");
  idx.AddDocument(3, "quarterly financial report");
  auto hits = idx.Search("pipeline");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].doc_id, 2u);  // higher term frequency wins
  EXPECT_GT(hits[0].score, hits[1].score);
}

TEST(InvertedIndexTest, SearchAllRequiresEveryTerm) {
  InvertedIndex idx;
  idx.AddDocument(1, "sensor data from the dispenser");
  idx.AddDocument(2, "sensor calibration manual");
  auto hits = idx.SearchAll("sensor dispenser");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].doc_id, 1u);
  // A term absent from the corpus empties the conjunction.
  EXPECT_TRUE(idx.SearchAll("sensor unicorns").empty());
}

TEST(InvertedIndexTest, StemmingUnifiesQueryAndDocument) {
  InvertedIndex idx;
  idx.AddDocument(1, "we are merging the delta stores");
  auto hits = idx.Search("merge");
  ASSERT_EQ(hits.size(), 1u);
}

TEST(InvertedIndexTest, RemoveDocument) {
  InvertedIndex idx;
  idx.AddDocument(1, "alpha beta");
  idx.AddDocument(2, "alpha gamma");
  idx.RemoveDocument(1);
  auto hits = idx.Search("alpha");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].doc_id, 2u);
  EXPECT_TRUE(idx.Search("beta").empty());
}

TEST(InvertedIndexTest, ReAddReplaces) {
  InvertedIndex idx;
  idx.AddDocument(1, "old content here");
  idx.AddDocument(1, "fresh words");
  EXPECT_TRUE(idx.Search("old").empty());
  EXPECT_EQ(idx.Search("fresh").size(), 1u);
  EXPECT_EQ(idx.num_documents(), 1u);
}

TEST(InvertedIndexTest, TopKLimits) {
  InvertedIndex idx;
  for (uint64_t d = 0; d < 50; ++d) idx.AddDocument(d, "common term document");
  EXPECT_EQ(idx.Search("common", 7).size(), 7u);
}

TEST(InvertedIndexTest, PhraseSearchRequiresAdjacency) {
  InvertedIndex idx;
  idx.AddDocument(1, "the gas pipeline exploded near town");
  idx.AddDocument(2, "gas prices rose while the pipeline was idle");
  idx.AddDocument(3, "pipeline gas flows reversed");  // reversed order
  auto hits = idx.SearchPhrase("gas pipeline");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].doc_id, 1u);
  // Both words present but not adjacent -> no phrase hit for doc 2/3.
  EXPECT_EQ(idx.SearchAll("gas pipeline").size(), 3u);
}

TEST(InvertedIndexTest, PhraseSearchStopwordsAndStemming) {
  InvertedIndex idx;
  idx.AddDocument(1, "merging the delta stores nightly");
  // Stopword "the" is removed on both sides; stems align.
  auto hits = idx.SearchPhrase("merge the delta store");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_TRUE(idx.SearchPhrase("delta merge").empty());  // wrong order
  EXPECT_TRUE(idx.SearchPhrase("").empty());
  // Single-word phrase degrades to normal search.
  EXPECT_EQ(idx.SearchPhrase("nightly").size(), 1u);
}

TEST(EntityExtractionTest, FindsCompaniesAndNames) {
  auto entities = ExtractEntities(
      "yesterday Walldorf Systems GmbH signed with Jane Smith for 5000 EUR");
  bool company = false, person = false, money = false;
  for (const auto& e : entities) {
    if (e.kind == Entity::Kind::kCompany && e.text == "Walldorf Systems GmbH") {
      company = true;
    }
    if (e.kind == Entity::Kind::kPersonOrPlace && e.text == "Jane Smith") person = true;
    if (e.kind == Entity::Kind::kMoney && e.text == "5000") money = true;
  }
  EXPECT_TRUE(company);
  EXPECT_TRUE(person);
  EXPECT_TRUE(money);
}

TEST(EntityExtractionTest, FindsEmails) {
  auto entities = ExtractEntities("contact support at help.desk@example.com today");
  bool email = false;
  for (const auto& e : entities) {
    if (e.kind == Entity::Kind::kEmail) {
      EXPECT_EQ(e.text, "help.desk@example.com");
      email = true;
    }
  }
  EXPECT_TRUE(email);
}

TEST(SentimentTest, PolarityAndNegation) {
  EXPECT_GT(SentimentScore("this engine is great and reliable"), 0.5);
  EXPECT_LT(SentimentScore("terrible failure, everything is broken"), -0.5);
  EXPECT_LT(SentimentScore("this is not good"), 0);
  EXPECT_EQ(SentimentScore("neutral statement about tables"), 0);
}

TEST(NaiveBayesTest, LearnsSeparableClasses) {
  NaiveBayesClassifier clf;
  clf.Train("sports", "the team won the football match");
  clf.Train("sports", "great goal in the final game");
  clf.Train("tech", "the database engine compiles queries");
  clf.Train("tech", "in-memory column store performance");
  EXPECT_EQ(clf.Classify("column store queries"), "tech");
  EXPECT_EQ(clf.Classify("football final"), "sports");
  EXPECT_EQ(clf.num_labels(), 2u);
}

TEST(NaiveBayesTest, UntrainedReturnsEmpty) {
  NaiveBayesClassifier clf;
  EXPECT_EQ(clf.Classify("anything"), "");
}

TEST(TextEngineTest, RefreshIndexesNewRowsIncrementally) {
  Database db;
  TransactionManager tm;
  Schema s({ColumnDef("id", DataType::kInt64), ColumnDef("body", DataType::kString)});
  ColumnTable* docs = *db.CreateTable("docs", s);

  auto engine_or = TextEngine::Create(docs, "body");
  ASSERT_TRUE(engine_or.ok());
  TextEngine engine = *std::move(engine_or);

  auto t1 = tm.Begin();
  ASSERT_TRUE(tm.Insert(t1.get(), docs, {Value::Int(1), Value::Str("pump failure in hall A")}).ok());
  ASSERT_TRUE(tm.Commit(t1.get()).ok());
  EXPECT_EQ(engine.Refresh(), 1u);

  auto t2 = tm.Begin();
  ASSERT_TRUE(tm.Insert(t2.get(), docs, {Value::Int(2), Value::Str("pump maintenance done")}).ok());
  ASSERT_TRUE(tm.Commit(t2.get()).ok());
  EXPECT_EQ(engine.Refresh(), 1u);
  EXPECT_EQ(engine.Refresh(), 0u);  // nothing new

  auto hits = engine.Search("pump");
  EXPECT_EQ(hits.size(), 2u);
}

TEST(TextEngineTest, RejectsNonStringColumn) {
  Database db;
  Schema s({ColumnDef("id", DataType::kInt64)});
  ColumnTable* t = *db.CreateTable("t", s);
  EXPECT_FALSE(TextEngine::Create(t, "id").ok());
  EXPECT_FALSE(TextEngine::Create(t, "missing").ok());
}

TEST(TextEngineTest, EntityExtractionBridgesToRelational) {
  Database db;
  TransactionManager tm;
  Schema docs_schema({ColumnDef("id", DataType::kInt64), ColumnDef("body", DataType::kString)});
  ColumnTable* docs = *db.CreateTable("docs", docs_schema);
  Schema ent_schema({ColumnDef("doc_row", DataType::kInt64),
                     ColumnDef("kind", DataType::kString),
                     ColumnDef("entity", DataType::kString)});
  ColumnTable* entities = *db.CreateTable("entities", ent_schema);

  auto txn = tm.Begin();
  ASSERT_TRUE(tm.Insert(txn.get(), docs,
                        {Value::Int(1),
                         Value::Str("order from Acme Corp arrived in Hamburg today")})
                  .ok());
  ASSERT_TRUE(tm.Commit(txn.get()).ok());

  auto engine = TextEngine::Create(docs, "body");
  ASSERT_TRUE(engine.ok());
  engine->Refresh();
  auto written = engine->ExtractEntitiesTo(&tm, entities);
  ASSERT_TRUE(written.ok());
  EXPECT_GT(*written, 0u);
  // The structured side is now queryable like any other table.
  uint64_t company_rows = 0;
  ReadView now = tm.AutoCommitView();
  ColumnTable::ReadGuard g(entities);
  g.ScanVisible(now, [&](uint64_t r) {
    if (g.GetValue(r, 1).AsString() == "COMPANY") ++company_rows;
  });
  EXPECT_EQ(company_rows, 1u);
}

TEST(TextEngineTest, SentimentOfRow) {
  Database db;
  TransactionManager tm;
  Schema s({ColumnDef("body", DataType::kString)});
  ColumnTable* docs = *db.CreateTable("docs", s);
  auto txn = tm.Begin();
  ASSERT_TRUE(tm.Insert(txn.get(), docs, {Value::Str("excellent reliable service")}).ok());
  ASSERT_TRUE(tm.Commit(txn.get()).ok());
  auto engine = TextEngine::Create(docs, "body");
  ASSERT_TRUE(engine.ok());
  engine->Refresh();
  EXPECT_GT(*engine->RowSentiment(0), 0.5);
  EXPECT_EQ(engine->RowSentiment(1).status().code(), StatusCode::kOutOfRange);
}

// Vacuum renumbers rows. The engine reads no row past the table's end, and
// Refresh re-indexes from row 0 even after later inserts regrow the table
// past where the last Refresh stopped, so every row id it names is current.
TEST(TextEngineTest, VacuumRenumberingReindexes) {
  Database db;
  TransactionManager tm;
  Schema s({ColumnDef("id", DataType::kInt64), ColumnDef("body", DataType::kString)});
  ColumnTable* docs = *db.CreateTable("docs", s);
  Schema ent_schema({ColumnDef("doc_row", DataType::kInt64),
                     ColumnDef("kind", DataType::kString),
                     ColumnDef("entity", DataType::kString)});
  TextEngine engine = *TextEngine::Create(docs, "body");

  auto insert = [&](int from, int to, const std::string& word) {
    auto txn = tm.Begin();
    for (int i = from; i < to; ++i) {
      ASSERT_TRUE(tm.Insert(txn.get(), docs,
                            {Value::Int(i), Value::Str(word + " order from Acme Corp")})
                      .ok());
    }
    ASSERT_TRUE(tm.Commit(txn.get()).ok());
  };
  // Extracts into a fresh table; returns {entities, largest doc_row}.
  int extractions = 0;
  auto extract = [&]() {
    ColumnTable* target =
        *db.CreateTable("entities" + std::to_string(extractions++), ent_schema);
    auto written = engine.ExtractEntitiesTo(&tm, target);
    EXPECT_TRUE(written.ok());
    int64_t max_row = -1;
    ColumnTable::ReadGuard g(target);
    g.ScanVisible(tm.AutoCommitView(), [&](uint64_t r) {
      max_row = std::max(max_row, g.GetValue(r, 0).AsInt());
    });
    return std::make_pair(written.ok() ? *written : 0, max_row);
  };

  insert(0, 2000, "turbine");
  EXPECT_EQ(engine.Refresh(), 2000u);
  {
    auto txn = tm.Begin();
    for (uint64_t r = 100; r < 2000; ++r) ASSERT_TRUE(tm.Delete(txn.get(), docs, r).ok());
    ASSERT_TRUE(tm.Commit(txn.get()).ok());
  }
  ASSERT_EQ(docs->Vacuum(tm.OldestActiveSnapshot()), 1900u);

  // Before the next Refresh: only the 100 rows the table still has.
  const uint64_t per_doc = ExtractEntities("turbine order from Acme Corp").size();
  ASSERT_GT(per_doc, 0u);
  auto [shrunk_written, shrunk_max] = extract();
  EXPECT_EQ(shrunk_written, 100 * per_doc);
  EXPECT_EQ(shrunk_max, 99);
  EXPECT_EQ(engine.RowSentiment(100).status().code(), StatusCode::kOutOfRange);

  // More inserts than were removed: 2100 rows, past the 2000 indexed.
  insert(2000, 4000, "compressor");
  EXPECT_EQ(engine.Refresh(), 2100u);

  ColumnTable::ReadGuard g(docs);
  ASSERT_EQ(g.size(), 2100u);
  auto old_hits = engine.Search("turbine", 5000);
  EXPECT_EQ(old_hits.size(), 100u);
  for (const SearchHit& h : old_hits) {
    ASSERT_LT(h.doc_id, g.size());
    EXPECT_LT(g.GetValue(h.doc_id, 0).AsInt(), 100);
  }
  auto new_hits = engine.Search("compressor", 5000);
  EXPECT_EQ(new_hits.size(), 2000u);
  for (const SearchHit& h : new_hits) {
    ASSERT_LT(h.doc_id, g.size());
    EXPECT_GE(g.GetValue(h.doc_id, 0).AsInt(), 2000);
  }

  auto [written, max_row] = extract();
  EXPECT_EQ(written, 2100 * per_doc);
  EXPECT_EQ(max_row, 2099);
  EXPECT_TRUE(engine.RowSentiment(2099).ok());
}

}  // namespace
}  // namespace poly
