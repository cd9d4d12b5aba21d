// Counting semaphore bounding concurrently executing queries (C++17 has
// no std::counting_semaphore). Serves the Database facade's
// async-submission path; the workload driver bounds execution by its
// pool size instead.
#pragma once

#include <condition_variable>
#include <mutex>

#include "common/macros.h"

namespace recycledb {

/// Bounds the number of simultaneously executing queries (the paper's
/// "Vectorwise was set up to execute 12 queries in parallel"). Acquire
/// blocks while all slots are taken.
class AdmissionGate {
 public:
  explicit AdmissionGate(int slots) : slots_(slots) { RDB_CHECK(slots > 0); }

  RDB_DISALLOW_COPY_AND_ASSIGN(AdmissionGate);

  void Acquire() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return slots_ > 0; });
    --slots_;
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++slots_;
    }
    cv_.notify_one();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int slots_;
};

/// RAII admission slot.
class AdmissionSlot {
 public:
  explicit AdmissionSlot(AdmissionGate* gate) : gate_(gate) {
    gate_->Acquire();
  }
  ~AdmissionSlot() { gate_->Release(); }

  RDB_DISALLOW_COPY_AND_ASSIGN(AdmissionSlot);

 private:
  AdmissionGate* gate_;
};

}  // namespace recycledb
