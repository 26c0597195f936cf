#include <gtest/gtest.h>

#include "common/serializer.h"
#include "types/value_serde.h"
#include "storage/column.h"
#include "storage/column_table.h"
#include "storage/database.h"
#include "storage/dictionary.h"
#include "storage/row_table.h"

namespace poly {
namespace {

TEST(ValueSerdeTest, AllTypesRoundTrip) {
  std::vector<Value> values = {
      Value::Null(),
      Value::Int(-42),
      Value::Int(INT64_MAX),
      Value::Dbl(3.14159),
      Value::Dbl(-0.0),
      Value::Boolean(true),
      Value::Boolean(false),
      Value::Str(""),
      Value::Str("hello\tworld\n"),
      Value::Timestamp(1234567890123456),
      Value::GeoPoint(-122.42, 37.77),
      Value::Document(R"({"k":[1,2]})"),
  };
  Serializer s;
  for (const Value& v : values) WriteValue(&s, v);
  Deserializer d(s.data());
  for (const Value& v : values) {
    auto back = ReadValue(&d);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, v);
    EXPECT_EQ(back->type(), v.type());  // timestamp/document tags preserved
  }
  EXPECT_TRUE(d.AtEnd());
  // Truncated payload is an error, not UB.
  Deserializer trunc(s.data().data(), 3);
  (void)trunc.GetU8();
  EXPECT_FALSE(ReadValue(&trunc).ok() && false);  // just must not crash
}

TEST(SortedDictionaryTest, LookupAndBounds) {
  SortedDictionary d({Value::Int(1), Value::Int(5), Value::Int(9)});
  EXPECT_EQ(*d.Lookup(Value::Int(5)), 1u);
  EXPECT_FALSE(d.Lookup(Value::Int(4)).has_value());
  EXPECT_EQ(d.LowerBound(Value::Int(5)), 1u);
  EXPECT_EQ(d.UpperBound(Value::Int(5)), 2u);
  EXPECT_EQ(d.LowerBound(Value::Int(100)), 3u);
}

TEST(SortedDictionaryTest, AllGreaterThanMax) {
  SortedDictionary d({Value::Int(1), Value::Int(5)});
  EXPECT_TRUE(d.AllGreaterThanMax({Value::Int(6), Value::Int(7)}));
  EXPECT_FALSE(d.AllGreaterThanMax({Value::Int(5)}));
  EXPECT_FALSE(d.AllGreaterThanMax({Value::Int(3), Value::Int(10)}));
  SortedDictionary empty;
  EXPECT_TRUE(empty.AllGreaterThanMax({Value::Int(0)}));
}

TEST(DeltaDictionaryTest, FirstComeIds) {
  DeltaDictionary d;
  EXPECT_EQ(d.GetOrAdd(Value::Str("b")), 0u);
  EXPECT_EQ(d.GetOrAdd(Value::Str("a")), 1u);
  EXPECT_EQ(d.GetOrAdd(Value::Str("b")), 0u);
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(*d.Lookup(Value::Str("a")), 1u);
  EXPECT_FALSE(d.Lookup(Value::Str("zzz")).has_value());
}

TEST(ColumnTest, AppendAndGetFromDelta) {
  Column col;
  col.Append(Value::Str("x"));
  col.Append(Value::Str("y"));
  col.Append(Value::Str("x"));
  EXPECT_EQ(col.size(), 3u);
  EXPECT_EQ(col.main_size(), 0u);
  EXPECT_EQ(col.Get(0), Value::Str("x"));
  EXPECT_EQ(col.Get(2), Value::Str("x"));
  // Two distinct values, three rows.
  EXPECT_EQ(col.delta_dictionary().size(), 2u);
}

TEST(ColumnTest, MergeMovesDeltaToSortedMain) {
  Column col;
  col.Append(Value::Str("banana"));
  col.Append(Value::Str("apple"));
  col.Append(Value::Str("cherry"));
  col.Append(Value::Str("apple"));
  ColumnMergeStats stats = col.Merge();
  EXPECT_FALSE(stats.fast_path);
  EXPECT_EQ(col.main_size(), 4u);
  EXPECT_EQ(col.delta_size(), 0u);
  // Rows preserved in order.
  EXPECT_EQ(col.Get(0), Value::Str("banana"));
  EXPECT_EQ(col.Get(1), Value::Str("apple"));
  EXPECT_EQ(col.Get(3), Value::Str("apple"));
  // Dictionary sorted: apple < banana < cherry.
  EXPECT_EQ(col.main_dictionary().At(0), Value::Str("apple"));
  EXPECT_EQ(col.main_dictionary().At(2), Value::Str("cherry"));
  // Sorted dictionary means ordered IDs.
  EXPECT_EQ(col.MainId(1), 0u);
  EXPECT_EQ(col.MainId(0), 1u);
}

TEST(ColumnTest, SecondMergeMixedValuesRemapsIds) {
  Column col;
  for (int v : {10, 30, 50}) col.Append(Value::Int(v));
  col.Merge();
  for (int v : {20, 40, 30}) col.Append(Value::Int(v));
  ColumnMergeStats stats = col.Merge();
  EXPECT_FALSE(stats.fast_path);
  EXPECT_EQ(stats.ids_reencoded, 3u);  // the three pre-existing main rows
  EXPECT_EQ(col.main_dictionary().size(), 5u);
  std::vector<int> expect = {10, 30, 50, 20, 40, 30};
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(col.Get(i), Value::Int(expect[i]));
  }
}

// Int 3 and Double 3.0 tie under Value::operator< but are different values
// (and different group keys). A merge keeps both, in a fixed order whatever
// order they arrived in, and Lookup finds each one; range bounds still
// cover the whole tie. Two int64s past 2^53 that compare as one double
// stay apart too.
TEST(ColumnTest, MergeKeepsValuesThatTieButDiffer) {
  const int64_t big = (int64_t{1} << 53) + 1;
  for (bool int_first : {true, false}) {
    Column col;
    std::vector<Value> rows = {Value::Int(3), Value::Dbl(3.0), Value::Int(big),
                               Value::Int(big - 1), Value::Dbl(2.5)};
    if (!int_first) std::swap(rows[0], rows[1]);
    for (size_t i = 0; i < rows.size(); ++i) {
      col.Append(rows[i]);
      if (i == 0 || i == 2) col.Merge();  // a main part, then the general merge path
    }
    col.Merge();
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(col.Get(i), rows[i]) << "row " << i;
      EXPECT_EQ(col.Get(i).type(), rows[i].type()) << "row " << i;
    }
    const SortedDictionary& dict = col.main_dictionary();
    ASSERT_EQ(dict.size(), 5u);
    EXPECT_EQ(dict.At(1).type(), DataType::kInt64);  // the tie breaks by type
    EXPECT_EQ(dict.At(2).type(), DataType::kDouble);
    EXPECT_EQ(dict.At(3), Value::Int(big - 1));
    EXPECT_EQ(dict.At(4), Value::Int(big));
    EXPECT_EQ(*dict.Lookup(Value::Int(3)), 1u);
    EXPECT_EQ(*dict.Lookup(Value::Dbl(3.0)), 2u);
    EXPECT_EQ(*dict.Lookup(Value::Int(big)), 4u);
    EXPECT_EQ(dict.LowerBound(Value::Int(3)), 1u);
    EXPECT_EQ(dict.UpperBound(Value::Dbl(3.0)), 3u);
  }
}

TEST(ColumnTest, GeneratedOrderFastPathSkipsReencode) {
  Column col;
  for (int v = 0; v < 100; ++v) col.Append(Value::Int(v));
  col.Merge();
  for (int v = 100; v < 200; ++v) col.Append(Value::Int(v));
  ColumnMergeStats stats = col.Merge(/*hint_generated_order=*/true);
  EXPECT_TRUE(stats.fast_path);
  EXPECT_EQ(stats.ids_reencoded, 0u);
  EXPECT_EQ(col.main_dictionary().size(), 200u);
  for (int v = 0; v < 200; ++v) EXPECT_EQ(col.Get(v), Value::Int(v));
}

TEST(ColumnTest, FastPathHintFallsBackWhenViolated) {
  Column col;
  for (int v = 0; v < 10; ++v) col.Append(Value::Int(v));
  col.Merge();
  col.Append(Value::Int(5));  // violates the "all greater" promise
  ColumnMergeStats stats = col.Merge(/*hint_generated_order=*/true);
  EXPECT_FALSE(stats.fast_path);  // must have taken the safe general path
  EXPECT_EQ(col.main_dictionary().size(), 10u);
  EXPECT_EQ(col.Get(10), Value::Int(5));
}

TEST(ColumnTest, UncompressedModeUses64BitIds) {
  Column packed(true), wide(false);
  for (int v = 0; v < 1000; ++v) {
    packed.Append(Value::Int(v % 4));
    wide.Append(Value::Int(v % 4));
  }
  packed.Merge();
  wide.Merge();
  EXPECT_LT(packed.MemoryBytes(), wide.MemoryBytes() / 4);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(packed.Get(i), wide.Get(i));
}

Schema TwoColSchema() {
  return Schema({ColumnDef("id", DataType::kInt64), ColumnDef("name", DataType::kString)});
}

TEST(ColumnTableTest, AppendAndRead) {
  ColumnTable t("t", TwoColSchema());
  ASSERT_TRUE(t.AppendVersion({Value::Int(1), Value::Str("a")}, 10).ok());
  ASSERT_TRUE(t.AppendVersion({Value::Int(2), Value::Str("b")}, 11).ok());
  EXPECT_EQ(t.num_versions(), 2u);
  Row row = t.GetRow(1);
  EXPECT_EQ(row[0], Value::Int(2));
  EXPECT_EQ(row[1], Value::Str("b"));
}

TEST(ColumnTableTest, WidthMismatchRejected) {
  ColumnTable t("t", TwoColSchema());
  EXPECT_FALSE(t.AppendVersion({Value::Int(1)}, 10).ok());
}

TEST(ColumnTableTest, NonNullableEnforced) {
  Schema s({ColumnDef("id", DataType::kInt64, /*null_ok=*/false)});
  ColumnTable t("t", s);
  EXPECT_FALSE(t.AppendVersion({Value::Null()}, 1).ok());
  EXPECT_TRUE(t.AppendVersion({Value::Int(1)}, 1).ok());
}

TEST(ColumnTableTest, MvccVisibility) {
  ColumnTable t("t", TwoColSchema());
  ASSERT_TRUE(t.AppendVersion({Value::Int(1), Value::Str("a")}, 5).ok());
  ASSERT_TRUE(t.AppendVersion({Value::Int(2), Value::Str("b")}, 9).ok());
  ASSERT_TRUE(t.SetDeleteStamp(0, 8).ok());

  ReadView early{4, 0};
  ReadView mid{7, 0};
  ReadView late{10, 0};
  EXPECT_EQ(t.CountVisible(early), 0u);
  EXPECT_EQ(t.CountVisible(mid), 1u);   // row0 alive, row1 not yet created
  EXPECT_EQ(t.CountVisible(late), 1u);  // row0 deleted, row1 alive
}

TEST(ColumnTableTest, UncommittedVisibleOnlyToOwner) {
  ColumnTable t("t", TwoColSchema());
  ASSERT_TRUE(t.AppendVersion({Value::Int(1), Value::Str("a")}, MakeTxnStamp(77)).ok());
  ReadView owner{100, 77};
  ReadView other{100, 78};
  EXPECT_EQ(t.CountVisible(owner), 1u);
  EXPECT_EQ(t.CountVisible(other), 0u);
}

TEST(ColumnTableTest, DoubleDeleteConflicts) {
  ColumnTable t("t", TwoColSchema());
  ASSERT_TRUE(t.AppendVersion({Value::Int(1), Value::Str("a")}, 1).ok());
  ASSERT_TRUE(t.SetDeleteStamp(0, MakeTxnStamp(5)).ok());
  Status st = t.SetDeleteStamp(0, MakeTxnStamp(6));
  EXPECT_TRUE(st.IsAborted());
}

TEST(ColumnTableTest, MergeKeepsMvccAndRowIds) {
  ColumnTable t("t", TwoColSchema());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(t.AppendVersion({Value::Int(i), Value::Str("n" + std::to_string(i % 5))},
                                5).ok());
  }
  ASSERT_TRUE(t.SetDeleteStamp(10, 6).ok());
  TableMergeStats stats = t.Merge();
  EXPECT_EQ(stats.columns_fast_path + stats.columns_general_path, 2u);
  EXPECT_EQ(t.column(0).delta_size(), 0u);
  EXPECT_EQ(t.GetRow(10)[0], Value::Int(10));
  ReadView view{100, 0};
  EXPECT_EQ(t.CountVisible(view), 49u);
}

TEST(ColumnTableTest, GeneratedKeyOrderSchemaFlagUsedByMerge) {
  Schema s;
  ColumnDef key("key", DataType::kInt64);
  key.generated_key_order = true;
  s.AddColumn(key);
  s.AddColumn(ColumnDef("val", DataType::kString));
  ColumnTable t("t", s);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(t.AppendVersion({Value::Int(i), Value::Str("x")}, 1).ok());
  }
  t.Merge();
  for (int i = 20; i < 40; ++i) {
    ASSERT_TRUE(t.AppendVersion({Value::Int(i), Value::Str("y")}, 2).ok());
  }
  TableMergeStats stats = t.Merge();
  EXPECT_EQ(stats.columns_fast_path, 1u);  // key column took the fast path
}

TEST(ColumnTableTest, SaveLoadRoundTrip) {
  ColumnTable t("orders", TwoColSchema());
  ASSERT_TRUE(t.AppendVersion({Value::Int(1), Value::Str("alpha")}, 3).ok());
  ASSERT_TRUE(t.AppendVersion({Value::Int(2), Value::Str("beta")}, 4).ok());
  ASSERT_TRUE(t.SetDeleteStamp(0, 9).ok());
  Serializer s;
  t.SaveTo(&s);
  Deserializer d(s.data());
  auto loaded = ColumnTable::LoadFrom(&d);
  ASSERT_TRUE(loaded.ok());
  ColumnTable* lt = loaded->get();
  EXPECT_EQ(lt->name(), "orders");
  EXPECT_EQ(lt->num_versions(), 2u);
  EXPECT_EQ(lt->GetRow(1)[1], Value::Str("beta"));
  EXPECT_EQ(lt->dts(0), 9u);
  EXPECT_EQ(lt->cts(1), 4u);
}

TEST(RowTableTest, MirrorsMvccSemantics) {
  RowTable t("r", TwoColSchema());
  ASSERT_TRUE(t.AppendVersion({Value::Int(1), Value::Str("a")}, 5).ok());
  ASSERT_TRUE(t.SetDeleteStamp(0, 8).ok());
  EXPECT_EQ(t.CountVisible(ReadView{6, 0}), 1u);
  EXPECT_EQ(t.CountVisible(ReadView{9, 0}), 0u);
  EXPECT_TRUE(t.SetDeleteStamp(0, 9).IsAborted());
}

TEST(DatabaseTest, CreateGetDrop) {
  Database db;
  auto t = db.CreateTable("a", TwoColSchema());
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(db.CreateTable("a", TwoColSchema()).status().code() ==
              StatusCode::kAlreadyExists);
  EXPECT_TRUE(db.GetTable("a").ok());
  EXPECT_FALSE(db.GetTable("b").ok());
  EXPECT_TRUE(db.DropTable("a").ok());
  EXPECT_FALSE(db.GetTable("a").ok());
}

TEST(DatabaseTest, RowAndColumnNamespacesShared) {
  Database db;
  ASSERT_TRUE(db.CreateRowTable("x", TwoColSchema()).ok());
  EXPECT_EQ(db.CreateTable("x", TwoColSchema()).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(db.TableNames().size(), 1u);
}

TEST(ColumnTableTest, VacuumRemovesDeadVersionsOnly) {
  ColumnTable t("t", TwoColSchema());
  // Rows: 0 alive, 1 deleted old (vacuumable), 2 deleted recently,
  // 3 delete-in-flight (uncommitted stamp), 4 alive.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(t.AppendVersion({Value::Int(i), Value::Str("r" + std::to_string(i))}, 2).ok());
  }
  ASSERT_TRUE(t.SetDeleteStamp(1, 5).ok());
  ASSERT_TRUE(t.SetDeleteStamp(2, 90).ok());
  ASSERT_TRUE(t.SetDeleteStamp(3, MakeTxnStamp(7)).ok());

  EXPECT_EQ(t.Vacuum(/*watermark=*/50), 1u);  // only row 1 is dead to all
  EXPECT_EQ(t.num_versions(), 4u);
  // Remaining rows keep their data and stamps (renumbered).
  std::vector<int64_t> ids;
  for (uint64_t r = 0; r < t.num_versions(); ++r) ids.push_back(t.GetValue(r, 0).AsInt());
  EXPECT_EQ(ids, (std::vector<int64_t>{0, 2, 3, 4}));
  EXPECT_EQ(t.dts(1), 90u);
  EXPECT_TRUE(StampIsUncommitted(t.dts(2)));
  // Visibility unchanged for a recent snapshot: rows 0 and 4 alive, row 2's
  // delete (ts 90) hasn't happened yet at 60, row 3's delete is in flight.
  EXPECT_EQ(t.CountVisible(ReadView{60, 0}), 4u);
  EXPECT_EQ(t.Vacuum(50), 0u);  // idempotent at same watermark
  EXPECT_EQ(t.Vacuum(100), 1u);  // row with dts=90 now collectable
}

TEST(ColumnTableTest, VacuumShrinksMemory) {
  ColumnTable t("t", TwoColSchema());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(t.AppendVersion({Value::Int(i), Value::Str("x" + std::to_string(i))}, 1).ok());
  }
  for (int i = 0; i < 1900; ++i) {
    ASSERT_TRUE(t.SetDeleteStamp(i, 2).ok());
  }
  t.Merge();
  size_t before = t.MemoryBytes();
  EXPECT_EQ(t.Vacuum(10), 1900u);
  EXPECT_LT(t.MemoryBytes(), before / 4);
  EXPECT_EQ(t.CountVisible(ReadView{100, 0}), 100u);
}

TEST(CompressionClaim, ColumnStoreBeatsRowStoreOnRedundantData) {
  // E3 sanity: 20k rows, 50 distinct strings -> dictionary wins big.
  Schema s({ColumnDef("k", DataType::kInt64), ColumnDef("city", DataType::kString)});
  ColumnTable ct("c", s);
  RowTable rt("r", s);
  for (int i = 0; i < 20000; ++i) {
    Row row = {Value::Int(i % 1000), Value::Str("city_name_" + std::to_string(i % 50))};
    ASSERT_TRUE(ct.AppendVersion(row, 1).ok());
    ASSERT_TRUE(rt.AppendVersion(row, 1).ok());
  }
  ct.Merge();
  EXPECT_LT(ct.MemoryBytes() * 3, rt.MemoryBytes());
}

}  // namespace
}  // namespace poly
