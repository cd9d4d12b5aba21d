#include "workload/driver.h"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "api/database.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"

namespace recycledb {
namespace workload {

double RunReport::AvgStreamMs() const {
  if (stream_ms.empty()) return 0;
  double sum = 0;
  for (double ms : stream_ms) sum += ms;
  return sum / static_cast<double>(stream_ms.size());
}

double RunReport::TotalQueryMs() const {
  double sum = 0;
  for (const auto& r : records) sum += r.end_ms - r.start_ms;
  return sum;
}

double RunReport::QueriesPerSec() const {
  if (wall_ms <= 0) return 0;
  return static_cast<double>(records.size()) * 1000.0 / wall_ms;
}

double RunReport::LatencyPercentileMs(double p) const {
  if (records.empty()) return 0;
  std::vector<double> lat;
  lat.reserve(records.size());
  for (const auto& r : records) lat.push_back(r.end_ms - r.start_ms);
  std::sort(lat.begin(), lat.end());
  p = std::min(100.0, std::max(0.0, p));
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(lat.size())));
  if (rank == 0) rank = 1;
  return lat[rank - 1];
}

QueryCounts RunReport::Totals() const {
  QueryCounts totals;
  for (const auto& r : records) totals += r.trace;
  return totals;
}

double RunReport::ReuseRate() const {
  if (records.empty()) return 0;
  int64_t reusing = 0;
  for (const auto& r : records) {
    if (r.trace.num_reuses > 0) ++reusing;
  }
  return static_cast<double>(reusing) / static_cast<double>(records.size());
}

RunReport RunStreams(Database* db, std::vector<StreamSpec> streams,
                     int max_concurrent) {
  RunReport report;
  report.stream_ms.assign(streams.size(), 0.0);
  report.stream_stats.assign(streams.size(), StreamStats{});
  std::mutex report_mu;

  // One task per stream, so the pool size is the execution bound.
  const int threads = std::max(
      1, std::min(max_concurrent, static_cast<int>(streams.size())));

  Stopwatch run_sw;
  {
    ThreadPool pool(threads);
    for (size_t s = 0; s < streams.size(); ++s) {
      pool.Submit([&, s] {
        const StreamSpec& spec = streams[s];
        SessionOptions sopts;
        sopts.name = "S" + std::to_string(s + 1);
        sopts.max_traces = 0;
        std::unique_ptr<Session> session = db->Connect(sopts);
        double stream_start = run_sw.ElapsedMs();
        for (size_t q = 0; q < spec.plans.size(); ++q) {
          QueryRecord rec;
          rec.stream = static_cast<int>(s);
          rec.index = static_cast<int>(q);
          rec.label = spec.labels[q];
          rec.start_ms = run_sw.ElapsedMs();
          Result result = session->Execute(spec.plans[q]);
          rec.end_ms = run_sw.ElapsedMs();
          RDB_CHECK_MSG(result.ok(), result.status().ToString().c_str());
          rec.result_rows = result.num_rows();
          rec.trace = result.trace();
          std::lock_guard<std::mutex> lock(report_mu);
          report.records.push_back(std::move(rec));
        }
        std::lock_guard<std::mutex> lock(report_mu);
        report.stream_ms[s] = run_sw.ElapsedMs() - stream_start;
      });
    }
    pool.WaitIdle();
  }
  report.wall_ms = run_sw.ElapsedMs();

  for (const auto& r : report.records) {
    LabelStats& ls = report.by_label[r.label];
    ++ls.count;
    ls.total_ms += r.end_ms - r.start_ms;
    StreamStats& ss = report.stream_stats[r.stream];
    ++ss.queries;
    ss.total_ms += r.end_ms - r.start_ms;
    ss += r.trace;
  }
  for (size_t s = 0; s < streams.size(); ++s) {
    report.stream_stats[s].span_ms = report.stream_ms[s];
  }
  std::sort(report.records.begin(), report.records.end(),
            [](const QueryRecord& a, const QueryRecord& b) {
              return a.start_ms < b.start_ms;
            });
  return report;
}

StreamSpec MakeStatementStream(PreparedStatement* statement,
                               const std::vector<ParamMap>& bindings,
                               const std::string& label) {
  StreamSpec spec;
  for (const auto& b : bindings) {
    statement->ClearBindings();
    statement->BindAll(b);
    PlanPtr plan;
    Status st = statement->ToPlan(&plan);
    RDB_CHECK_MSG(st.ok(), st.ToString().c_str());
    spec.labels.push_back(label);
    spec.plans.push_back(std::move(plan));
  }
  return spec;
}

}  // namespace workload
}  // namespace recycledb
