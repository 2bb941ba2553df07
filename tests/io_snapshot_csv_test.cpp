// Tests for the resolution-snapshot CSV interchange format.
#include "io/snapshot_csv.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "io/csv.h"

namespace sp::io {
namespace {

dns::ResolutionSnapshot example_snapshot() {
  dns::ResolutionSnapshot snapshot(Date{2024, 9, 11});
  dns::DomainResolution a;
  a.queried = dns::DomainName::must_parse("www.shop.example");
  a.response_name = dns::DomainName::must_parse("edge7.cdn.example");
  a.v4 = {*IPv4Address::from_string("20.1.1.10"), *IPv4Address::from_string("20.1.1.11")};
  a.v6 = {*IPv6Address::from_string("2620:100::10")};
  snapshot.add(std::move(a));

  dns::DomainResolution b;  // v4-only
  b.queried = dns::DomainName::must_parse("old.example");
  b.response_name = b.queried;
  b.v4 = {*IPv4Address::from_string("20.2.2.2")};
  snapshot.add(std::move(b));

  dns::DomainResolution c;  // v6-only
  c.queried = dns::DomainName::must_parse("new.example");
  c.response_name = c.queried;
  c.v6 = {*IPv6Address::from_string("2620:200::1")};
  snapshot.add(std::move(c));
  return snapshot;
}

TEST(SnapshotCsv, RoundTrips) {
  const std::string path = ::testing::TempDir() + "/sp_snapshot_test.csv";
  const auto snapshot = example_snapshot();
  ASSERT_TRUE(write_snapshot_csv(path, snapshot));

  const auto loaded = read_snapshot_csv(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->date(), snapshot.date());
  ASSERT_EQ(loaded->domain_count(), 3u);
  EXPECT_EQ(loaded->dual_stack_count(), 1u);
  const auto& entry = loaded->entries()[0];
  EXPECT_EQ(entry.queried.text(), "www.shop.example");
  EXPECT_EQ(entry.response_name.text(), "edge7.cdn.example");
  ASSERT_EQ(entry.v4.size(), 2u);
  EXPECT_EQ(entry.v4[1].to_string(), "20.1.1.11");
  ASSERT_EQ(entry.v6.size(), 1u);
  EXPECT_TRUE(loaded->entries()[1].v6.empty());
  EXPECT_TRUE(loaded->entries()[2].v4.empty());
  std::remove(path.c_str());
}

// Pins the exact bytes of the format: one empty address side each way,
// several '|'-joined addresses, and the root as a response name.
TEST(SnapshotCsv, WritesGoldenBytes) {
  const std::string path = ::testing::TempDir() + "/sp_snapshot_golden.csv";
  auto snapshot = example_snapshot();
  dns::DomainResolution apex;
  apex.queried = dns::DomainName::must_parse("apex.example");
  apex.response_name = dns::DomainName();  // the root
  apex.v4 = {*IPv4Address::from_string("192.0.2.1"), *IPv4Address::from_string("198.51.100.7"),
             *IPv4Address::from_string("203.0.113.255")};
  apex.v6 = {*IPv6Address::from_string("2001:db8::1"),
             *IPv6Address::from_string("2001:db8:0:1:0:0:0:0")};
  snapshot.add(std::move(apex));
  ASSERT_TRUE(write_snapshot_csv(path, snapshot));

  std::FILE* in = std::fopen(path.c_str(), "rb");
  ASSERT_NE(in, nullptr);
  std::string text;
  char buffer[256];
  for (std::size_t got; (got = std::fread(buffer, 1, sizeof buffer, in)) > 0;) {
    text.append(buffer, got);
  }
  std::fclose(in);
  EXPECT_EQ(text,
            "#date,2024-09-11\n"
            "queried,response,v4_addrs,v6_addrs\n"
            "www.shop.example,edge7.cdn.example,20.1.1.10|20.1.1.11,2620:100::10\n"
            "old.example,old.example,20.2.2.2,\n"
            "new.example,new.example,,2620:200::1\n"
            "apex.example,.,192.0.2.1|198.51.100.7|203.0.113.255,2001:db8::1|2001:db8:0:1::\n");
  std::remove(path.c_str());
}

TEST(SnapshotCsv, RejectsMalformedFiles) {
  const std::string path = ::testing::TempDir() + "/sp_snapshot_bad.csv";
  // Missing date row.
  ASSERT_TRUE(write_csv_file(path, {{"queried", "response", "v4_addrs", "v6_addrs"}}));
  EXPECT_FALSE(read_snapshot_csv(path).has_value());
  // Bad date.
  ASSERT_TRUE(write_csv_file(path, {{"#date", "2024/09/11"},
                                    {"queried", "response", "v4_addrs", "v6_addrs"}}));
  EXPECT_FALSE(read_snapshot_csv(path).has_value());
  // Bad month.
  ASSERT_TRUE(write_csv_file(path, {{"#date", "2024-13-11"},
                                    {"queried", "response", "v4_addrs", "v6_addrs"}}));
  EXPECT_FALSE(read_snapshot_csv(path).has_value());
  // Bad address.
  ASSERT_TRUE(write_csv_file(path, {{"#date", "2024-09-11"},
                                    {"queried", "response", "v4_addrs", "v6_addrs"},
                                    {"a.example", "a.example", "999.1.1.1", ""}}));
  EXPECT_FALSE(read_snapshot_csv(path).has_value());
  // Bad domain.
  ASSERT_TRUE(write_csv_file(path, {{"#date", "2024-09-11"},
                                    {"queried", "response", "v4_addrs", "v6_addrs"},
                                    {"bad..name", "a.example", "", ""}}));
  EXPECT_FALSE(read_snapshot_csv(path).has_value());
  // Wrong column count.
  ASSERT_TRUE(write_csv_file(path, {{"#date", "2024-09-11"},
                                    {"queried", "response", "v4_addrs", "v6_addrs"},
                                    {"a.example", "a.example", ""}}));
  EXPECT_FALSE(read_snapshot_csv(path).has_value());
  EXPECT_FALSE(read_snapshot_csv("/nonexistent/snapshot.csv").has_value());
  std::remove(path.c_str());
}

TEST(SnapshotCsv, EmptySnapshotRoundTrips) {
  const std::string path = ::testing::TempDir() + "/sp_snapshot_empty.csv";
  ASSERT_TRUE(write_snapshot_csv(path, dns::ResolutionSnapshot(Date{2020, 9, 9})));
  const auto loaded = read_snapshot_csv(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->domain_count(), 0u);
  EXPECT_EQ(loaded->date().to_string(), "2020-09-09");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sp::io
