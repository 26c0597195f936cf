#include <gtest/gtest.h>

#include "docstore/doc_query.h"
#include "docstore/flexible_table.h"
#include "docstore/json.h"
#include "docstore/object_index.h"
#include "storage/database.h"

namespace poly {
namespace {

TEST(JsonTest, ParsePrimitives) {
  EXPECT_TRUE(ParseJson("null")->is_null());
  EXPECT_EQ(ParseJson("true")->AsBool(), true);
  EXPECT_EQ(ParseJson("42")->AsNumber(), 42.0);
  EXPECT_EQ(ParseJson("-3.5")->AsNumber(), -3.5);
  EXPECT_EQ(ParseJson("\"hi\"")->AsString(), "hi");
}

TEST(JsonTest, ParseNested) {
  auto doc = ParseJson(R"({"a": [1, 2, {"b": "x"}], "c": {"d": null}})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* a = doc->Field("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->AsArray().size(), 3u);
  EXPECT_EQ(a->Item(2)->Field("b")->AsString(), "x");
  EXPECT_TRUE(doc->Field("c")->Field("d")->is_null());
  EXPECT_EQ(doc->Field("zz"), nullptr);
  EXPECT_EQ(a->Item(9), nullptr);
}

TEST(JsonTest, ParseErrors) {
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("{\"a\" 1}").ok());
  EXPECT_FALSE(ParseJson("1 trailing").ok());
  EXPECT_FALSE(ParseJson("nope").ok());
}

TEST(JsonTest, SerializeRoundTrip) {
  std::string text = R"({"arr":[1,2.5,"s"],"esc":"a\"b\nc","n":null,"t":true})";
  auto doc = ParseJson(text);
  ASSERT_TRUE(doc.ok());
  auto again = ParseJson(doc->Serialize());
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(*doc == *again);
}

TEST(DocPathTest, ParseAndEvaluate) {
  auto doc = ParseJson(R"({"items":[{"sku":"a","qty":2},{"sku":"b","qty":7}]})");
  ASSERT_TRUE(doc.ok());
  auto path = DocPath::Parse("$.items[*].sku");
  ASSERT_TRUE(path.ok());
  auto matches = path->Evaluate(*doc);
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0]->AsString(), "a");
  EXPECT_EQ(matches[1]->AsString(), "b");

  auto idx = DocPath::Parse("$.items[1].qty");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(idx->First(*doc)->AsNumber(), 7.0);
  EXPECT_EQ(idx->ToString(), "$.items[1].qty");

  auto missing = DocPath::Parse("$.nope.deep");
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(missing->Evaluate(*doc).empty());
}

TEST(DocPathTest, ParseErrors) {
  EXPECT_FALSE(DocPath::Parse("$.").ok());
  EXPECT_FALSE(DocPath::Parse("$[x]").ok());
  EXPECT_FALSE(DocPath::Parse("$.a[").ok());
  EXPECT_FALSE(DocPath::Parse("$+").ok());
}

TEST(JsonCompareTest, Semantics) {
  EXPECT_TRUE(JsonCompare(CmpOp::kLt, JsonValue::Number(1), JsonValue::Number(2)));
  EXPECT_TRUE(JsonCompare(CmpOp::kEq, JsonValue::Str("a"), JsonValue::Str("a")));
  EXPECT_TRUE(JsonCompare(CmpOp::kGt, JsonValue::Str("b"), JsonValue::Str("a")));
  // Mixed kinds only equal/unequal.
  EXPECT_TRUE(JsonCompare(CmpOp::kNe, JsonValue::Number(1), JsonValue::Str("1")));
  EXPECT_FALSE(JsonCompare(CmpOp::kLt, JsonValue::Number(1), JsonValue::Str("1")));
}

class DocQueryFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema s({ColumnDef("id", DataType::kInt64), ColumnDef("doc", DataType::kDocument)});
    table_ = *db_.CreateTable("orders", s);
    auto txn = tm_.Begin();
    auto add = [&](int64_t id, const std::string& json) {
      ASSERT_TRUE(tm_.Insert(txn.get(), table_, {Value::Int(id), Value::Document(json)}).ok());
    };
    add(1, R"({"customer":"acme","total":100,"items":[{"sku":"x","qty":1}]})");
    add(2, R"({"customer":"globex","total":250,"items":[{"sku":"y","qty":9}]})");
    add(3, R"({"customer":"acme","total":70})");
    ASSERT_TRUE(tm_.Commit(txn.get()).ok());
  }

  Database db_;
  TransactionManager tm_;
  ColumnTable* table_ = nullptr;
};

TEST_F(DocQueryFixture, SelectWhereOnPath) {
  auto q = DocQuery::Create(table_, "doc");
  ASSERT_TRUE(q.ok());
  auto rows = q->SelectWhere(tm_.AutoCommitView(), "$.customer", CmpOp::kEq,
                             JsonValue::Str("acme"));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, (std::vector<uint64_t>{0, 2}));
  auto big = q->SelectWhere(tm_.AutoCommitView(), "$.total", CmpOp::kGt,
                            JsonValue::Number(90));
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(*big, (std::vector<uint64_t>{0, 1}));
}

TEST_F(DocQueryFixture, SelectWhereInsideArray) {
  auto q = DocQuery::Create(table_, "doc");
  ASSERT_TRUE(q.ok());
  auto rows = q->SelectWhere(tm_.AutoCommitView(), "$.items[*].qty", CmpOp::kGe,
                             JsonValue::Number(5));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, std::vector<uint64_t>{1});
}

TEST_F(DocQueryFixture, SelectExistsAndExtract) {
  auto q = DocQuery::Create(table_, "doc");
  ASSERT_TRUE(q.ok());
  auto has_items = q->SelectExists(tm_.AutoCommitView(), "$.items");
  ASSERT_TRUE(has_items.ok());
  EXPECT_EQ(*has_items, (std::vector<uint64_t>{0, 1}));
  auto totals = q->Extract(tm_.AutoCommitView(), "$.total");
  ASSERT_TRUE(totals.ok());
  ASSERT_EQ(totals->size(), 3u);
  EXPECT_EQ((*totals)[2].second.AsNumber(), 70.0);
}

TEST_F(DocQueryFixture, CreateRejectsNonDocumentColumn) {
  EXPECT_FALSE(DocQuery::Create(table_, "id").ok());
}

TEST(FlexibleTableTest, ImplicitColumnsOnInsert) {
  Database db;
  TransactionManager tm;
  ColumnTable* t = *db.CreateTable("flex", Schema());
  FlexibleTable flex(&tm, t);

  ASSERT_TRUE(flex.Insert({{"name", Value::Str("a")}, {"qty", Value::Int(3)}}).ok());
  ASSERT_TRUE(flex.Insert({{"name", Value::Str("b")}, {"color", Value::Str("red")}}).ok());
  EXPECT_EQ(t->schema().num_columns(), 3u);
  EXPECT_EQ(flex.NumRecords(), 2u);

  // Row 0 has no "color": reads NULL.
  size_t color = *t->schema().IndexOf("color");
  ColumnTable::ReadGuard g(t);
  EXPECT_TRUE(g.GetValue(0, color).is_null());
  EXPECT_EQ(g.GetValue(1, color), Value::Str("red"));
  // Row 1 has no "qty".
  size_t qty = *t->schema().IndexOf("qty");
  EXPECT_TRUE(g.GetValue(1, qty).is_null());
}

TEST(FlexibleTableTest, TypeConflictRejected) {
  Database db;
  TransactionManager tm;
  ColumnTable* t = *db.CreateTable("flex", Schema());
  FlexibleTable flex(&tm, t);
  ASSERT_TRUE(flex.Insert({{"qty", Value::Int(3)}}).ok());
  EXPECT_FALSE(flex.Insert({{"qty", Value::Str("three")}}).ok());
  // Null is compatible with any column type.
  EXPECT_TRUE(flex.Insert({{"qty", Value::Null()}}).ok());
}

TEST(FlexibleTableTest, SparseColumnsStayCheap) {
  Database db;
  TransactionManager tm;
  ColumnTable* t = *db.CreateTable("flex", Schema());
  FlexibleTable flex(&tm, t);
  // 500 rows, 20 rare columns each set on a single row.
  for (int i = 0; i < 500; ++i) {
    std::map<std::string, Value> record = {{"common", Value::Int(i)}};
    if (i % 25 == 0) record["rare_" + std::to_string(i / 25)] = Value::Int(i);
    ASSERT_TRUE(flex.Insert(record).ok());
  }
  EXPECT_EQ(t->schema().num_columns(), 21u);
  t->Merge();
  // The 20 rare columns (1 value + 499 NULLs each) must together cost a
  // small fraction of the dense common column: the dictionary layer packs
  // a mostly-NULL column to ~1 bit per row.
  size_t common_bytes = t->column(0).MemoryBytes();
  size_t rare_bytes = 0;
  for (size_t c = 1; c < t->schema().num_columns(); ++c) {
    rare_bytes += t->column(c).MemoryBytes();
  }
  EXPECT_LT(rare_bytes, common_bytes / 2);
}

TEST(ObjectIndexTest, MaterializeAndLookup) {
  Database db;
  TransactionManager tm;
  ColumnTable* header = *db.CreateTable(
      "hdr", Schema({ColumnDef("key", DataType::kInt64), ColumnDef("who", DataType::kString)}));
  ColumnTable* items = *db.CreateTable(
      "itm", Schema({ColumnDef("hdr_key", DataType::kInt64), ColumnDef("sku", DataType::kString)}));
  ColumnTable* target = *db.CreateTable(
      "objs", Schema({ColumnDef("key", DataType::kInt64), ColumnDef("doc", DataType::kDocument)}));

  auto txn = tm.Begin();
  ASSERT_TRUE(tm.Insert(txn.get(), header, {Value::Int(1), Value::Str("ann")}).ok());
  ASSERT_TRUE(tm.Insert(txn.get(), header, {Value::Int(2), Value::Str("bob")}).ok());
  ASSERT_TRUE(tm.Insert(txn.get(), items, {Value::Int(1), Value::Str("x")}).ok());
  ASSERT_TRUE(tm.Insert(txn.get(), items, {Value::Int(1), Value::Str("y")}).ok());
  ASSERT_TRUE(tm.Commit(txn.get()).ok());

  auto written = ObjectJoinIndex::Materialize(&tm, *header, "key", *items, "hdr_key", target);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_EQ(*written, 2u);

  auto obj = ObjectJoinIndex::Lookup(*target, tm.AutoCommitView(), 1);
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(obj->Field("header")->Field("who")->AsString(), "ann");
  EXPECT_EQ(obj->Field("items")->AsArray().size(), 2u);
  // Header without items gets an empty array.
  auto obj2 = ObjectJoinIndex::Lookup(*target, tm.AutoCommitView(), 2);
  ASSERT_TRUE(obj2.ok());
  EXPECT_TRUE(obj2->Field("items")->AsArray().empty());
  EXPECT_FALSE(ObjectJoinIndex::Lookup(*target, tm.AutoCommitView(), 99).ok());
}

}  // namespace
}  // namespace poly
