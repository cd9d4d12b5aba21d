// recycledb_e2e: runs one end-to-end benchmark workload and prints its
// metrics. Usually started through bench/e2e/run.sh, which builds it.
//
//   recycledb_e2e --workload W --seed S [--trace FILE] [--scratch DIR]
//                 [--record FILE]
//
// Untraced runs report the end-to-end metrics; --trace runs the same
// load calling the layers one by one and reports per-layer metrics. The
// last stdout line is one JSON object: correct, attempted, failed,
// metrics. Exit status: 0 when every op succeeded and every answer and
// workload property checked out, 1 when not, 2 when nothing was measured.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/string_util.h"
#include "harness.h"

using namespace recycledb;
using namespace recycledb::e2e;

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "%s\nusage: recycledb_e2e --workload W --seed S [--trace FILE]"
               " [--scratch DIR] [--record FILE]\nworkloads:",
               message);
  for (const std::string& w : WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// Every digit a double has: values are reported as measured, unrounded.
std::string JsonNumber(double v) {
  return std::isfinite(v) ? StrFormat("%.17g", v) : std::string("0");
}

/// {"name": {"value": v, "unit": u}, ...}
std::string MetricsJson(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ", ";
    out += JsonString(name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}";
}

/// {"name": v, ...} over the metrics `keep(name, unit)` accepts.
template <typename Keep>
std::string ValuesJson(const std::map<std::string, Metric>& metrics,
                       Keep keep) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (!keep(name, m.unit)) continue;
    if (out.size() > 1) out += ", ";
    out += JsonString(name) + ": " + JsonNumber(m.value);
  }
  return out + "}";
}

/// The per-layer metrics that are counts of what the engine did, not
/// timings: for one seed they repeat exactly on a single client.
bool IsCount(const std::string& name, const std::string& unit) {
  return (unit == "count" || unit == "ratio" || unit == "MB") &&
         name.rfind("trace.", 0) != 0;
}

bool Any(const std::string&, const std::string&) { return true; }

void PrintSection(const char* title,
                  const std::map<std::string, Metric>& metrics) {
  std::printf("%s\n", title);
  for (const auto& [name, m] : metrics) {
    std::printf("  %-32s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
}

/// Appends the run's record (metrics plus the counts that must repeat
/// exactly for a seed) to the file compare.py reads.
void AppendRecord(const Args& args, const Report& r,
                  const std::map<std::string, Metric>& metrics) {
  std::FILE* f = std::fopen(args.record_path.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot append to %s\n", args.record_path.c_str());
    return;
  }
  std::string checks = "[";
  for (const auto& c : r.checks) {
    if (checks.size() > 1) checks += ", ";
    checks += "{\"name\": " + JsonString(c.name) +
              ", \"ok\": " + (c.ok ? "true" : "false") +
              ", \"detail\": " + JsonString(c.detail) + "}";
  }
  checks += "]";
  std::fprintf(
      f,
      "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
      "\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s, \"counts\": %s, \"extra\": %s, \"checks\": %s, "
      "\"verify_s\": %s}\n",
      JsonString(r.workload).c_str(), (unsigned long long)r.seed,
      r.traced ? 1 : 0,
      r.correct() ? "true" : "false", (long long)r.attempted,
      (long long)r.failed,
      ValuesJson(metrics, Any).c_str(),
      ValuesJson(r.per_layer, IsCount).c_str(),
      ValuesJson(r.extra, Any).c_str(),
      checks.c_str(), JsonNumber(r.verify_s).c_str());
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--trace") {
      args.trace_path = value;
    } else if (flag == "--scratch") {
      args.scratch_dir = value;
    } else if (flag == "--record") {
      args.record_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) return Usage("--workload is required");

  Report report;
  Status st = RunWorkload(args, &report);
  if (!st.ok()) {
    std::fprintf(stderr, "%s: %s\n", args.workload.c_str(),
                 st.ToString().c_str());
    return 2;
  }

  std::printf("workload %s  seed %llu  %s\n", report.workload.c_str(),
              (unsigned long long)report.seed,
              report.traced ? "traced" : "untraced");
  PrintSection("end-to-end", report.end_to_end);
  PrintSection("not gated", report.extra);
  if (report.traced) PrintSection("per-layer", report.per_layer);
  std::printf("checks\n");
  for (const auto& c : report.checks) {
    std::printf("  %s  %s (%s)\n", c.ok ? "PASS" : "FAIL", c.name.c_str(),
                c.detail.c_str());
  }
  std::printf(
      "oracle: %lld of %lld timed statements compared with bypass,"
      " verify_s %.3f\n",
      (long long)report.verified, (long long)report.verify_population,
      report.verify_s);
  std::printf("failed_ratio %.6g (%lld failed of %lld attempted ops)\n",
              report.attempted > 0 ? 1.0 * report.failed / report.attempted
                                   : 0.0,
              (long long)report.failed, (long long)report.attempted);

  const std::map<std::string, Metric>& metrics =
      report.traced ? report.per_layer : report.end_to_end;
  if (!args.record_path.empty()) AppendRecord(args, report, metrics);
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      report.correct() ? "true" : "false", (long long)report.attempted,
      (long long)report.failed, MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
