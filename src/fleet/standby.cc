#include "fleet/standby.h"

#include <chrono>

#include "api/database.h"

namespace recycledb {
namespace fleet {

StandbyTailer::StandbyTailer(Database* db, StandbyOptions options)
    : db_(db), options_(options) {
  // First refresh runs synchronously so the standby is warm the moment
  // construction returns (tests and failover drills rely on this).
  RefreshNow().ok();
  thread_ = std::thread([this] { Loop(); });
}

StandbyTailer::~StandbyTailer() { Stop(); }

void StandbyTailer::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    cv_.wait_for(lock, std::chrono::milliseconds(options_.refresh_interval_ms),
                 [this] { return stop_; });
    if (stop_) return;
    lock.unlock();
    Status st = db_->RefreshFleet();
    lock.lock();
    if (st.ok()) ++refreshes_;
  }
}

Status StandbyTailer::RefreshNow() {
  Status st = db_->RefreshFleet();
  if (st.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++refreshes_;
  }
  return st;
}

void StandbyTailer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      if (!thread_.joinable()) return;
    }
    stop_ = true;
    cv_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
}

Status StandbyTailer::Promote() {
  Stop();
  // The final refresh performs the stale-lease takeover if the primary's
  // lease already lapsed; otherwise the regular refreshes that follow
  // (now driven by this instance's own log appends) will.
  return RefreshNow();
}

int64_t StandbyTailer::refreshes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return refreshes_;
}

}  // namespace fleet
}  // namespace recycledb
