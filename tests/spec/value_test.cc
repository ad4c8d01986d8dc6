#include "tests/spec/value.h"

#include <gtest/gtest.h>

#include "src/dataframe/schema.h"

namespace cdpipe {
namespace {

TEST(ValueTest, NullValue) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_FALSE(v.is_numeric());
  EXPECT_FALSE(v.AsDouble().ok());
}

TEST(ValueTest, DoubleValue) {
  Value v = Value::Double(2.5);
  EXPECT_TRUE(v.is_numeric());
  EXPECT_DOUBLE_EQ(std::move(v.AsDouble()).ValueOrDie(), 2.5);
}

TEST(ValueTest, Int64Value) {
  Value v = Value::Int64(-7);
  EXPECT_TRUE(v.is_numeric());
  EXPECT_EQ(v.int64_value(), -7);
  EXPECT_DOUBLE_EQ(std::move(v.AsDouble()).ValueOrDie(), -7.0);
}

TEST(ValueTest, TimestampValue) {
  Value v = Value::Timestamp(1420070400);
  EXPECT_TRUE(v.is_numeric());
  EXPECT_EQ(v.int64_value(), 1420070400);
  EXPECT_DOUBLE_EQ(std::move(v.AsDouble()).ValueOrDie(), 1420070400.0);
}

TEST(ValueTest, StringValue) {
  Value v = Value::String("hello");
  EXPECT_FALSE(v.is_numeric());
  EXPECT_EQ(v.string_value(), "hello");
  EXPECT_FALSE(v.AsDouble().ok());
}

TEST(ValueTest, Equality) {
  EXPECT_EQ(Value::Double(1.0), Value::Double(1.0));
  EXPECT_FALSE(Value::Double(1.0) == Value::Double(2.0));
  EXPECT_FALSE(Value::Double(1.0) == Value::Int64(1));
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_EQ(Value::String("a"), Value::String("a"));
  // A timestamp and a plain int64 with the same payload are distinct.
  EXPECT_FALSE(Value::Timestamp(5) == Value::Int64(5));
}

TEST(ValueTest, TypeNames) {
  EXPECT_STREQ(ValueTypeName(ValueType::kNull), "null");
  EXPECT_STREQ(ValueTypeName(ValueType::kDouble), "double");
  EXPECT_STREQ(ValueTypeName(ValueType::kInt64), "int64");
  EXPECT_STREQ(ValueTypeName(ValueType::kTimestamp), "timestamp");
  EXPECT_STREQ(ValueTypeName(ValueType::kString), "string");
}

}  // namespace
}  // namespace cdpipe
