// Warm-standby failover for the fleet tier.
//
// A standby is just a second Database opened over the primary's shared
// spill directory; what makes it *warm* is tailing — periodically
// refreshing against the fleet manifest so the primary's checkpointed
// and evicted results are already tracked as adoptable entries before
// the first statement arrives. StandbyTailer wraps that loop: a
// background thread calling Database::RefreshFleet at a fixed cadence.
//
//   DatabaseOptions opts;
//   opts.recycler.spill_dir = shared_dir;      // same dir as the primary
//   opts.recycler.fleet_instance = "standby";
//   auto standby = Database::OpenOrDie(opts);
//   fleet::StandbyTailer tailer(standby.get(), {});
//   ...                                        // primary serves traffic
//   tailer.Promote();                          // primary died: take over
//   // standby now serves; first statements hit adopted entries instead
//   // of re-executing.
//
// Failover is not a mode switch inside the engine: a tailing standby is
// already a fully functional Database (it can serve reads the whole
// time). Promote() simply stops the background cadence after one final
// refresh — from then on the instance behaves exactly like any fleet
// member, claiming the dead primary's entries via stale-lease takeover
// on its regular refreshes.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "common/status.h"

namespace recycledb {

class Database;

namespace fleet {

struct StandbyOptions {
  /// Cadence of the background RefreshFleet loop. Bounds adoption
  /// staleness: a primary spill becomes servable here at most one
  /// interval (plus the primary's append of its add record) after it lands.
  int64_t refresh_interval_ms = 200;
};

class StandbyTailer {
 public:
  /// Starts tailing immediately (one synchronous refresh, then the
  /// background cadence). `db` must outlive this object.
  StandbyTailer(Database* db, StandbyOptions options);
  ~StandbyTailer();

  StandbyTailer(const StandbyTailer&) = delete;
  StandbyTailer& operator=(const StandbyTailer&) = delete;

  /// One synchronous refresh round, on the caller's thread (tests and
  /// deterministic benches; the background loop keeps running).
  Status RefreshNow();

  /// Stops the background loop (idempotent). The Database stays usable.
  void Stop();

  /// Failover: stop tailing, then run one final synchronous refresh so
  /// the takeover sees the very last manifest state. After this the
  /// instance serves as the active member.
  Status Promote();

  /// Refresh rounds completed (monotone; diagnostics/tests).
  int64_t refreshes() const;

 private:
  void Loop();

  Database* db_;
  StandbyOptions options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  int64_t refreshes_ = 0;
  std::thread thread_;
};

}  // namespace fleet
}  // namespace recycledb
