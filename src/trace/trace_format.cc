#include "trace/trace_format.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/file_io.h"
#include "common/hash.h"
#include "common/string_util.h"

namespace recycledb {
namespace trace {

int64_t Trace::NumStatements() const {
  int64_t n = 0;
  for (const auto& e : events) {
    if (e.kind == TraceEvent::Kind::kStatement) ++n;
  }
  return n;
}

int64_t Trace::NumAppends() const {
  return static_cast<int64_t>(events.size()) - NumStatements();
}

double Trace::HitRate() const {
  int64_t statements = 0, hits = 0;
  for (const auto& e : events) {
    if (e.kind != TraceEvent::Kind::kStatement) continue;
    ++statements;
    if (e.statement.reuse_mode != ReuseMode::kNone) ++hits;
  }
  if (statements == 0) return 0;
  return static_cast<double>(hits) / static_cast<double>(statements);
}

// ---------------------------------------------------------------------------
// Result digests
// ---------------------------------------------------------------------------

uint64_t RowDigest(const Table& t, int64_t row) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (int c = 0; c < t.num_columns(); ++c) {
    const std::string v = DatumToKeyString(t.Get(row, c));
    h = Fnv1a(v.data(), v.size(), h);
    h = Fnv1a("|", 1, h);
  }
  return h;
}

uint64_t ResultDigest(const Table& t) {
  // Sum of mixed per-row hashes: commutative (order-insensitive) but
  // multiset-sensitive — a duplicated row shifts the sum.
  uint64_t digest = 0;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    digest += HashMix(RowDigest(t, r));
  }
  return digest;
}

// ---------------------------------------------------------------------------
// Datum codec
// ---------------------------------------------------------------------------

std::string EncodeDatum(const Datum& d) {
  struct Enc {
    std::string operator()(std::monostate) const { return "null"; }
    std::string operator()(bool v) const { return v ? "b:1" : "b:0"; }
    std::string operator()(int32_t v) const {
      return "i32:" + std::to_string(v);
    }
    std::string operator()(int64_t v) const {
      return "i64:" + std::to_string(v);
    }
    std::string operator()(double v) const {
      // Hex float: round-trips every finite double exactly.
      return StrFormat("f:%a", v);
    }
    std::string operator()(const std::string& v) const { return "s:" + v; }
  };
  return std::visit(Enc{}, d);
}

namespace {

Status BadDatum(const std::string& text) {
  return Status::InvalidArgument("undecodable datum: '" + text + "'");
}

Status ParseInt64(const std::string& body, int64_t* out) {
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(body.c_str(), &end, 10);
  if (body.empty() || end != body.c_str() + body.size() || errno == ERANGE) {
    return Status::InvalidArgument("malformed integer: '" + body + "'");
  }
  *out = static_cast<int64_t>(v);
  return Status::OK();
}

Status ParseUint64(const std::string& body, uint64_t* out) {
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(body.c_str(), &end, 10);
  if (body.empty() || end != body.c_str() + body.size() || errno == ERANGE ||
      body[0] == '-') {
    return Status::InvalidArgument("malformed unsigned: '" + body + "'");
  }
  *out = static_cast<uint64_t>(v);
  return Status::OK();
}

}  // namespace

Status DecodeDatum(const std::string& text, Datum* out) {
  if (text == "null") {
    *out = std::monostate{};
    return Status::OK();
  }
  size_t colon = text.find(':');
  if (colon == std::string::npos) return BadDatum(text);
  const std::string tag = text.substr(0, colon);
  const std::string body = text.substr(colon + 1);
  if (tag == "s") {
    *out = body;
    return Status::OK();
  }
  if (tag == "b") {
    if (body != "0" && body != "1") return BadDatum(text);
    *out = body == "1";
    return Status::OK();
  }
  if (tag == "i32" || tag == "i64") {
    int64_t v = 0;
    if (!ParseInt64(body, &v).ok()) return BadDatum(text);
    if (tag == "i32") {
      if (v < INT32_MIN || v > INT32_MAX) return BadDatum(text);
      *out = static_cast<int32_t>(v);
    } else {
      *out = v;
    }
    return Status::OK();
  }
  if (tag == "f") {
    errno = 0;
    char* end = nullptr;
    double v = std::strtod(body.c_str(), &end);
    if (body.empty() || end != body.c_str() + body.size()) {
      return BadDatum(text);
    }
    *out = v;
    return Status::OK();
  }
  return BadDatum(text);
}

// ---------------------------------------------------------------------------
// JSON writer (strings and string->string objects only)
// ---------------------------------------------------------------------------

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

void AppendField(std::string* line, const char* key, const std::string& value,
                 bool* first) {
  if (!*first) *line += ",";
  *first = false;
  *line += "\"";
  *line += key;
  *line += "\":\"";
  *line += JsonEscape(value);
  *line += "\"";
}

void AppendObjectField(std::string* line, const char* key,
                       const std::map<std::string, std::string>& object,
                       bool* first) {
  if (!*first) *line += ",";
  *first = false;
  *line += "\"";
  *line += key;
  *line += "\":{";
  bool inner_first = true;
  for (const auto& [k, v] : object) {
    if (!inner_first) *line += ",";
    inner_first = false;
    *line += "\"" + JsonEscape(k) + "\":\"" + JsonEscape(v) + "\"";
  }
  *line += "}";
}

std::string U64(uint64_t v) { return std::to_string(v); }
std::string I64(int64_t v) { return std::to_string(v); }

// ---------------------------------------------------------------------------
// JSON reader
// ---------------------------------------------------------------------------

/// Parsed value: a string scalar or a string->string object.
struct JsonValue {
  bool is_object = false;
  std::string scalar;
  std::map<std::string, std::string> object;
};

/// Cursor over one line; all methods fail soft via Status.
class LineParser {
 public:
  explicit LineParser(const std::string& line) : s_(line) {}

  Status Parse(std::map<std::string, JsonValue>* out) {
    SkipSpace();
    if (!Consume('{')) return Fail("expected '{'");
    SkipSpace();
    if (Consume('}')) return AtEnd();
    while (true) {
      std::string key;
      RDB_RETURN_NOT_OK(ParseString(&key));
      SkipSpace();
      if (!Consume(':')) return Fail("expected ':'");
      SkipSpace();
      JsonValue value;
      if (Peek() == '{') {
        value.is_object = true;
        RDB_RETURN_NOT_OK(ParseObject(&value.object));
      } else {
        RDB_RETURN_NOT_OK(ParseString(&value.scalar));
      }
      (*out)[key] = std::move(value);
      SkipSpace();
      if (Consume('}')) return AtEnd();
      if (!Consume(',')) return Fail("expected ',' or '}'");
      SkipSpace();
    }
  }

 private:
  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  bool Consume(char c) {
    if (Peek() != c) return false;
    ++pos_;
    return true;
  }
  void SkipSpace() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }
  Status Fail(const char* what) const {
    return Status::InvalidArgument(
        StrFormat("%s at offset %zu", what, pos_));
  }
  Status AtEnd() {
    SkipSpace();
    if (pos_ != s_.size()) return Fail("trailing characters");
    return Status::OK();
  }

  Status ParseObject(std::map<std::string, std::string>* out) {
    if (!Consume('{')) return Fail("expected '{'");
    SkipSpace();
    if (Consume('}')) return Status::OK();
    while (true) {
      std::string key, value;
      RDB_RETURN_NOT_OK(ParseString(&key));
      SkipSpace();
      if (!Consume(':')) return Fail("expected ':'");
      SkipSpace();
      RDB_RETURN_NOT_OK(ParseString(&value));
      (*out)[key] = std::move(value);
      SkipSpace();
      if (Consume('}')) return Status::OK();
      if (!Consume(',')) return Fail("expected ',' or '}'");
      SkipSpace();
    }
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Fail("expected '\"'");
    out->clear();
    while (true) {
      if (pos_ >= s_.size()) return Fail("unterminated string");
      char c = s_[pos_++];
      if (c == '"') return Status::OK();
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= s_.size()) return Fail("dangling escape");
      char e = s_[pos_++];
      switch (e) {
        case '"':
          *out += '"';
          break;
        case '\\':
          *out += '\\';
          break;
        case '/':
          *out += '/';
          break;
        case 'n':
          *out += '\n';
          break;
        case 'r':
          *out += '\r';
          break;
        case 't':
          *out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return Fail("truncated \\u escape");
          unsigned int code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Fail("bad \\u escape");
            }
          }
          if (code > 0xff) return Fail("non-latin \\u escape unsupported");
          *out += static_cast<char>(code);
          break;
        }
        default:
          return Fail("unknown escape");
      }
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

/// Field accessors over a parsed line, all failing soft.
class Fields {
 public:
  explicit Fields(std::map<std::string, JsonValue> values)
      : values_(std::move(values)) {}

  Status GetString(const char* key, std::string* out) const {
    const JsonValue* v = Find(key);
    if (v == nullptr || v->is_object) return Missing(key);
    *out = v->scalar;
    return Status::OK();
  }
  Status GetInt64(const char* key, int64_t* out) const {
    std::string s;
    RDB_RETURN_NOT_OK(GetString(key, &s));
    return ParseInt64(s, out);
  }
  Status GetUint64(const char* key, uint64_t* out) const {
    std::string s;
    RDB_RETURN_NOT_OK(GetString(key, &s));
    return ParseUint64(s, out);
  }
  Status GetObject(const char* key,
                   std::map<std::string, std::string>* out) const {
    const JsonValue* v = Find(key);
    if (v == nullptr || !v->is_object) return Missing(key);
    *out = v->object;
    return Status::OK();
  }
  bool Has(const char* key) const { return Find(key) != nullptr; }

 private:
  const JsonValue* Find(const char* key) const {
    auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
  }
  static Status Missing(const char* key) {
    return Status::InvalidArgument(
        std::string("missing or mistyped field '") + key + "'");
  }
  std::map<std::string, JsonValue> values_;
};

Status LineError(size_t line_no, const Status& cause) {
  return Status::InvalidArgument(
      StrFormat("trace line %zu: %s", line_no, cause.message().c_str()));
}

}  // namespace

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

std::string SerializeTrace(const Trace& trace) {
  std::string out;
  {
    std::string line = "{";
    bool first = true;
    AppendField(&line, "kind", "header", &first);
    AppendField(&line, "version", I64(trace.header.version), &first);
    AppendField(&line, "seed", U64(trace.header.seed), &first);
    AppendField(&line, "clock_ms", I64(trace.header.clock_ms), &first);
    AppendField(&line, "workload", trace.header.workload, &first);
    AppendField(&line, "mode", trace.header.mode, &first);
    AppendObjectField(&line, "tags", trace.header.tags, &first);
    line += "}\n";
    out += line;
  }
  for (const TraceEvent& e : trace.events) {
    std::string line = "{";
    bool first = true;
    if (e.kind == TraceEvent::Kind::kStatement) {
      const StatementEvent& s = e.statement;
      AppendField(&line, "kind", "statement", &first);
      AppendField(&line, "sql", s.sql, &first);
      if (!s.params.empty()) {
        std::map<std::string, std::string> params;
        for (const auto& [name, value] : s.params) {
          params[name] = EncodeDatum(value);
        }
        AppendObjectField(&line, "params", params, &first);
      }
      AppendField(&line, "plan_fp", U64(s.plan_fingerprint), &first);
      AppendField(&line, "template", U64(s.template_hash), &first);
      AppendField(&line, "mode", ReuseModeName(s.reuse_mode), &first);
      AppendField(&line, "rows", I64(s.rows), &first);
      AppendField(&line, "digest", U64(s.digest), &first);
      if (!s.plan_explain.empty()) {
        AppendField(&line, "explain", s.plan_explain, &first);
      }
      // Written only when nonzero: traces recorded before the field
      // existed round-trip byte-identically.
      if (s.adoptions != 0) {
        AppendField(&line, "adoptions", I64(s.adoptions), &first);
      }
    } else {
      AppendField(&line, "kind", "append", &first);
      AppendField(&line, "table", e.append.table, &first);
      AppendField(&line, "rows", I64(e.append.rows), &first);
      AppendField(&line, "start_row", I64(e.append.start_row), &first);
    }
    line += "}\n";
    out += line;
  }
  return out;
}

Status ParseTrace(const std::string& text, Trace* out) {
  *out = Trace{};
  bool saw_header = false;
  size_t line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t nl = text.find('\n', pos);
    std::string line = nl == std::string::npos
                           ? text.substr(pos)
                           : text.substr(pos, nl - pos);
    pos = nl == std::string::npos ? text.size() + 1 : nl + 1;
    ++line_no;
    // Skip blank lines; a trailing newline is not a truncated event.
    bool blank = true;
    for (char c : line) {
      if (!std::isspace(static_cast<unsigned char>(c))) blank = false;
    }
    if (blank) continue;

    std::map<std::string, JsonValue> values;
    Status st = LineParser(line).Parse(&values);
    if (!st.ok()) return LineError(line_no, st);
    Fields fields(std::move(values));

    std::string kind;
    st = fields.GetString("kind", &kind);
    if (!st.ok()) return LineError(line_no, st);

    if (kind == "header") {
      if (saw_header) {
        return LineError(line_no,
                         Status::InvalidArgument("duplicate header"));
      }
      TraceHeader& h = out->header;
      st = fields.GetInt64("version", &h.version);
      if (!st.ok()) return LineError(line_no, st);
      if (h.version > kTraceFormatVersion || h.version < 1) {
        return LineError(
            line_no,
            Status::InvalidArgument(StrFormat(
                "unsupported trace format version %lld (reader supports "
                "up to %lld)",
                static_cast<long long>(h.version),
                static_cast<long long>(kTraceFormatVersion))));
      }
      st = fields.GetUint64("seed", &h.seed);
      if (!st.ok()) return LineError(line_no, st);
      st = fields.GetInt64("clock_ms", &h.clock_ms);
      if (!st.ok()) return LineError(line_no, st);
      st = fields.GetString("workload", &h.workload);
      if (!st.ok()) return LineError(line_no, st);
      st = fields.GetString("mode", &h.mode);
      if (!st.ok()) return LineError(line_no, st);
      st = fields.GetObject("tags", &h.tags);
      if (!st.ok()) return LineError(line_no, st);
      saw_header = true;
      continue;
    }

    if (!saw_header) {
      return LineError(
          line_no, Status::InvalidArgument("event before header line"));
    }

    if (kind == "statement") {
      TraceEvent e;
      e.kind = TraceEvent::Kind::kStatement;
      StatementEvent& s = e.statement;
      st = fields.GetString("sql", &s.sql);
      if (!st.ok()) return LineError(line_no, st);
      if (fields.Has("params")) {
        std::map<std::string, std::string> params;
        st = fields.GetObject("params", &params);
        if (!st.ok()) return LineError(line_no, st);
        for (const auto& [name, encoded] : params) {
          Datum d;
          st = DecodeDatum(encoded, &d);
          if (!st.ok()) return LineError(line_no, st);
          s.params[name] = std::move(d);
        }
      }
      st = fields.GetUint64("plan_fp", &s.plan_fingerprint);
      if (!st.ok()) return LineError(line_no, st);
      st = fields.GetUint64("template", &s.template_hash);
      if (!st.ok()) return LineError(line_no, st);
      std::string mode;
      st = fields.GetString("mode", &mode);
      if (!st.ok()) return LineError(line_no, st);
      if (!ParseReuseMode(mode, &s.reuse_mode)) {
        return LineError(line_no, Status::InvalidArgument(
                                      "unknown reuse mode '" + mode + "'"));
      }
      st = fields.GetInt64("rows", &s.rows);
      if (!st.ok()) return LineError(line_no, st);
      st = fields.GetUint64("digest", &s.digest);
      if (!st.ok()) return LineError(line_no, st);
      if (fields.Has("explain")) {
        st = fields.GetString("explain", &s.plan_explain);
        if (!st.ok()) return LineError(line_no, st);
      }
      if (fields.Has("adoptions")) {
        st = fields.GetInt64("adoptions", &s.adoptions);
        if (!st.ok()) return LineError(line_no, st);
      }
      out->events.push_back(std::move(e));
      continue;
    }

    if (kind == "append") {
      TraceEvent e;
      e.kind = TraceEvent::Kind::kAppend;
      st = fields.GetString("table", &e.append.table);
      if (!st.ok()) return LineError(line_no, st);
      st = fields.GetInt64("rows", &e.append.rows);
      if (!st.ok()) return LineError(line_no, st);
      st = fields.GetInt64("start_row", &e.append.start_row);
      if (!st.ok()) return LineError(line_no, st);
      out->events.push_back(std::move(e));
      continue;
    }

    return LineError(line_no, Status::InvalidArgument(
                                  "unknown event kind '" + kind + "'"));
  }
  if (!saw_header) {
    return Status::InvalidArgument("trace has no header line");
  }
  return Status::OK();
}

Status ReadTraceFile(const std::string& path, Trace* out) {
  std::string text;
  RDB_RETURN_NOT_OK(ReadWholeFile(path, &text));
  Status st = ParseTrace(text, out);
  if (!st.ok()) {
    return Status::InvalidArgument(path + ": " + st.message());
  }
  return Status::OK();
}

Status WriteTraceFile(const std::string& path, const Trace& trace) {
  // tmp + rename: a crash mid-write never leaves a torn trace under the
  // final name.
  return WriteFileAtomic(path, SerializeTrace(trace));
}

}  // namespace trace
}  // namespace recycledb
