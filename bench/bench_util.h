// Shared helpers for the figure-reproduction benches.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "recycledb/recycledb.h"

namespace recycledb {
namespace bench {

inline int64_t EnvInt(const char* name, int64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return fallback;
  int64_t x = std::atoll(v);
  return x > 0 ? x : fallback;
}

inline std::string EnvStr(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return (v == nullptr || v[0] == '\0') ? fallback : std::string(v);
}

// ---------------------------------------------------------------------------
// Minimal JSON emission (machine-readable bench results for CI artifacts)
// ---------------------------------------------------------------------------

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

/// One flat JSON object built from typed key/value pairs.
class JsonObject {
 public:
  JsonObject& Set(const std::string& key, const std::string& v) {
    fields_.push_back(StrFormat("\"%s\":\"%s\"", JsonEscape(key).c_str(),
                                JsonEscape(v).c_str()));
    return *this;
  }
  JsonObject& Set(const std::string& key, const char* v) {
    return Set(key, std::string(v));
  }
  JsonObject& Set(const std::string& key, double v) {
    fields_.push_back(
        StrFormat("\"%s\":%.6g", JsonEscape(key).c_str(), v));
    return *this;
  }
  JsonObject& Set(const std::string& key, int64_t v) {
    fields_.push_back(StrFormat("\"%s\":%lld", JsonEscape(key).c_str(),
                                static_cast<long long>(v)));
    return *this;
  }
  JsonObject& Set(const std::string& key, int v) {
    return Set(key, static_cast<int64_t>(v));
  }

  std::string Str() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ",";
      out += fields_[i];
    }
    out += "}";
    return out;
  }

 private:
  std::vector<std::string> fields_;
};

/// A JSON array of objects that benches append rows to. `WriteEnvPath`
/// writes the array to the file named by RECYCLEDB_JSON_OUT (when set),
/// which the CI bench-smoke step uploads as an artifact.
class JsonResultSink {
 public:
  void Add(const JsonObject& obj) { rows_.push_back(obj.Str()); }

  std::string Str() const {
    std::string out = "[";
    for (size_t i = 0; i < rows_.size(); ++i) {
      if (i > 0) out += ",\n ";
      out += rows_[i];
    }
    out += "]";
    return out;
  }

  /// Writes to $RECYCLEDB_JSON_OUT; returns the path written, or "" when
  /// the variable is unset / the file could not be opened.
  std::string WriteEnvPath(const char* env_var = "RECYCLEDB_JSON_OUT") const {
    const char* path = std::getenv(env_var);
    if (path == nullptr || path[0] == '\0') return "";
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) return "";
    std::string s = Str();
    std::fwrite(s.data(), 1, s.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    return path;
  }

 private:
  std::vector<std::string> rows_;
};

/// Opens a Database with `config` whose catalog shares the base tables
/// of `source` (zero-copy TablePtr sharing), so mode-sweep benches
/// generate the workload data once and compare engines over identical
/// tables.
inline std::unique_ptr<Database> MakeDatabase(const Catalog& source,
                                              const RecyclerConfig& config) {
  DatabaseOptions options;
  options.recycler = config;
  std::unique_ptr<Database> db = Database::OpenOrDie(options);
  for (const auto& name : source.TableNames()) {
    RDB_CHECK(db->CreateTable(name, source.GetTable(name)).ok());
  }
  return db;
}

inline std::unique_ptr<Database> MakeDatabase(const Catalog& source,
                                              RecyclerMode mode) {
  RecyclerConfig config;
  config.mode = mode;
  return MakeDatabase(source, config);
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

}  // namespace bench
}  // namespace recycledb
