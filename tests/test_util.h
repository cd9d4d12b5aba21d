// Shared helpers for the recycledb test suite.
#pragma once

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/string_util.h"
#include "storage/table.h"

/// The recycler of `db` (a Database*) agrees with itself, its spill
/// files and its manifest log (Recycler::CheckConsistency). For gtest
/// bodies and helpers.
#define EXPECT_CONSISTENT(db)                                         \
  do {                                                                \
    const ::recycledb::Status consistent_ =                           \
        (db)->recycler().CheckConsistency();                          \
    EXPECT_TRUE(consistent_.ok()) << consistent_.ToString();          \
  } while (0)

namespace recycledb {
namespace testing {

/// mkdtemp wrapper honoring $TMPDIR (CI points it at the runner's
/// scratch space); removed recursively on destruction.
class TempSpillDir {
 public:
  TempSpillDir() {
    const char* base = std::getenv("TMPDIR");
    std::string tmpl = std::string(base && *base ? base : "/tmp");
    tmpl += "/rdb-XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char* d = mkdtemp(buf.data());
    RDB_CHECK(d != nullptr);
    path_ = d;
  }
  ~TempSpillDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempSpillDir(const TempSpillDir&) = delete;
  TempSpillDir& operator=(const TempSpillDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Paths of the spill files in `dir`.
inline std::vector<std::string> SpillFiles(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".spill") out.push_back(entry.path());
  }
  return out;
}

/// Renders a row as a canonical string (doubles at 6 significant digits so
/// summation-order differences do not break equality).
inline std::string RowKey(const Table& t, int64_t row) {
  std::string key;
  for (int c = 0; c < t.num_columns(); ++c) {
    key += DatumToString(t.Get(row, c));
    key += "|";
  }
  return key;
}

/// Multiset of canonical row strings (order-insensitive table equality).
inline std::multiset<std::string> RowMultiset(const Table& t) {
  std::multiset<std::string> rows;
  for (int64_t r = 0; r < t.num_rows(); ++r) rows.insert(RowKey(t, r));
  return rows;
}

/// Exact row rendering, in table order or sorted: doubles at 17
/// significant digits, so equal renderings mean bit-equal values (for
/// oracles that demand bit-identity with a recycler-bypass run).
inline std::vector<std::string> BitRows(const Table& t, bool ordered) {
  std::vector<std::string> rows;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    std::string key;
    for (int c = 0; c < t.num_columns(); ++c) {
      const Datum& d = t.Get(r, c);
      key += std::holds_alternative<double>(d)
                 ? StrFormat("%.17g", std::get<double>(d))
                 : DatumToString(d);
      key += "|";
    }
    rows.push_back(std::move(key));
  }
  if (!ordered) std::sort(rows.begin(), rows.end());
  return rows;
}

/// Multiset restricted to the given column names (used for top-N queries
/// where ties at the cut boundary are resolved arbitrarily).
inline std::multiset<std::string> ColumnMultiset(
    const Table& t, const std::vector<std::string>& cols) {
  std::vector<int> idx;
  for (const auto& c : cols) idx.push_back(t.schema().IndexOfChecked(c));
  std::multiset<std::string> rows;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    std::string key;
    for (int c : idx) {
      key += DatumToString(t.Get(r, c));
      key += "|";
    }
    rows.insert(key);
  }
  return rows;
}

/// Threads this process runs now (the entries of /proc/self/task), or -1
/// where that directory is unavailable.
inline int CountProcessThreads() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  int n = 0;
  for (; !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    ++n;
  }
  return ec ? -1 : n;
}

}  // namespace testing
}  // namespace recycledb
