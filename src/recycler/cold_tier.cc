#include "recycler/cold_tier.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <limits>
#include <system_error>

#include "common/hash.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "fleet/lock_file.h"

namespace fs = std::filesystem;

namespace recycledb {

namespace {

/// File name relative to the spill directory (log entries must be
/// path-independent: the directory may be mounted differently per
/// process).
std::string Basename(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// The writer named by a spill file name (FilePath, plus ".tmp" while in
/// flight): "r<hash>-<writer>-<n>.spill[.tmp]". False for any other name.
bool SpillWriter(const std::string& name, std::string* writer) {
  static const std::string kSpill = ".spill", kTmp = ".spill.tmp";
  std::string stem;
  if (EndsWith(name, kTmp)) {
    stem = name.substr(0, name.size() - kTmp.size());
  } else if (EndsWith(name, kSpill)) {
    stem = name.substr(0, name.size() - kSpill.size());
  } else {
    return false;
  }
  const size_t first = stem.find('-');
  const size_t last = stem.rfind('-');
  if (stem.empty() || stem[0] != 'r' || first == std::string::npos ||
      first == last) {
    return false;
  }
  *writer = stem.substr(first + 1, last - first - 1);
  return true;
}

}  // namespace

Status ColdTier::ValidateSpillDir(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::InvalidArgument(
        StrFormat("spill_dir %s cannot be created: %s", dir.c_str(),
                  ec.message().c_str()));
  }
  if (!fs::is_directory(dir, ec)) {
    return Status::InvalidArgument(
        StrFormat("spill_dir %s is not a directory", dir.c_str()));
  }
  // Permission to create and delete entries, checked without writing a
  // file into the directory.
  if (::access(dir.c_str(), W_OK | X_OK) != 0) {
    return Status::InvalidArgument(
        StrFormat("spill_dir %s is not writable", dir.c_str()));
  }
  return Status::OK();
}

Status ColdTier::ValidateSpillDirReadable(const std::string& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return Status::InvalidArgument(
        StrFormat("spill_dir %s does not exist or is not a directory "
                  "(read-only adoption mode never creates it)",
                  dir.c_str()));
  }
  fs::directory_iterator it(dir, ec);
  if (ec) {
    return Status::InvalidArgument(
        StrFormat("spill_dir %s is not readable: %s", dir.c_str(),
                  ec.message().c_str()));
  }
  return Status::OK();
}

ColdTier::~ColdTier() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_worker_ = true;
    work_cv_.notify_all();
  }
  if (worker_.joinable()) worker_.join();
  std::lock_guard<std::mutex> lock(mu_);
  if (enabled_ && !read_only_ && (log_.is_open() || log_dirty_)) {
    // Graceful shutdown: log what is left and give up our lease. A lease
    // of 0 reads as expired, so any opener may reclaim the files; the
    // same instance id reclaims them at once either way.
    std::vector<const RGNode*> dropped;  // the recycler is going away
    AppendLogLocked(&dropped, /*leaving=*/true);
  }
}

Status ColdTier::Open(const ColdTierOptions& options) {
  if (options.dir.empty()) return Status::OK();
  // The one probe of the directory matches the mode: an adopt-only
  // standby on a read-only mount must open cleanly (no create, no write),
  // while a writable tier over an unwritable directory is an error.
  open_status_ = options.read_only ? ValidateSpillDirReadable(options.dir)
                                   : ValidateSpillDir(options.dir);
  RDB_RETURN_NOT_OK(open_status_);
  std::lock_guard<std::mutex> lock(mu_);
  dir_ = options.dir;
  capacity_bytes_ = options.capacity_bytes;
  read_only_ = options.read_only;
  instance_ =
      options.instance_id.empty() ? kDefaultInstanceId : options.instance_id;
  lease_ms_ = options.lease_ms;

  // Scan: drop unreadable files, keep readable spill files as orphans.
  struct Scanned {
    fs::path path;
    SpillFileMeta meta;
    int64_t bytes = 0;
  };
  std::vector<Scanned> spills;
  std::vector<fs::path> tmps, to_delete;
  bool has_log = false;
  const std::string log_name = Basename(fleet::ManifestLog::Path(dir_));
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const fs::path& p = entry.path();
    if (p.filename() == log_name) {
      has_log = true;
    } else if (p.extension() == ".tmp") {
      tmps.push_back(p);
    } else if (p.extension() == ".spill") {
      Scanned s;
      s.path = p;
      std::error_code size_ec;
      s.bytes = static_cast<int64_t>(fs::file_size(p, size_ec));
      if (size_ec || !ReadSpillMeta(p.string(), &s.meta).ok()) {
        to_delete.push_back(p);  // unreadable: never adoptable
        continue;
      }
      spills.push_back(std::move(s));
    }
  }

  // The log decides ownership. An unreadable log reads as an empty one:
  // every file is then unlisted, and the first append rewrites the log.
  if (has_log) log_.Open(dir_, !read_only_, /*create=*/false).ok();
  const fleet::ManifestView& view = log_.view();
  const int64_t now_ms = fleet::UnixMillisNow();
  auto live_peer = [&](const std::string& writer) {
    return writer != instance_ && view.OwnerLive(writer, now_ms);
  };

  // A torn write. A live peer may still be writing its spill, and the
  // log's .tmp belongs to the flock holder: delete only spills of this
  // instance or of a writer without a live lease.
  for (const fs::path& p : tmps) {
    std::string writer;
    if (SpillWriter(p.filename().string(), &writer) && !live_peer(writer)) {
      to_delete.push_back(p);
    }
  }

  // Ownership: a listed file is its owner's — ours when the owner is us
  // or dead (read-only tiers own nothing). An unlisted file is a live
  // writer's spill not logged yet (its add arrives through the log), a
  // file that may predate a purge of one of its tables (deleted), or
  // claimable. A duplicate canonical key keeps the later-scanned file
  // when both are ours (the images are equivalent; results are immutable)
  // and the owned file when ownership differs.
  for (Scanned& s : spills) {
    const std::string file = s.path.filename().string();
    std::string owner;
    int64_t admit_seq = 0;
    auto listed = view.entries.find(file);
    if (listed != view.entries.end()) {
      owner = listed->second.owner;
      admit_seq = listed->second.seq;
    } else {
      SpillWriter(file, &owner);
      if (live_peer(owner)) continue;
      if (view.AnyPurged(s.meta.base_tables)) {
        to_delete.push_back(s.path);
        continue;
      }
    }
    const bool owned = !read_only_ && !live_peer(owner);
    const bool logged = owned && listed != view.entries.end() &&
                        owner == instance_;
    auto dup = by_key_.find(s.meta.canon_key);
    if (dup != by_key_.end()) {
      // A peer copy never displaces what we already track; an owned copy
      // displaces anything (EvictRec deletes only an owned file).
      if (!owned) continue;
      EvictRec(dup->second, nullptr);
    }
    AddOrphanLocked(s.path.string(), s.bytes, std::move(s.meta), owned,
                    owner, admit_seq, logged);
    // File counter must clear existing names so a fresh spill never
    // collides with (and silently overwrites) a recovered file.
    ++next_file_id_;
  }
  if (!read_only_) {
    for (const fs::path& p : to_delete) fs::remove(p, ec);
    // Listed files of ours or of a dead owner that the scan did not keep
    // (gone, unreadable, or a displaced duplicate) leave the log. This
    // list replaces the drops the duplicates' evictions queued.
    unlogged_drops_.clear();
    for (const auto& [file, e] : view.entries) {
      if (by_file_.count(file) > 0 || live_peer(e.owner)) continue;
      unlogged_drops_.push_back(file);
      log_dirty_ = true;
    }
  }

  // An over-cap directory (cap lowered across restarts) is trimmed
  // immediately, oldest-scanned first.
  std::vector<const RGNode*> dropped;
  SweepToFit(0, &dropped);
  enabled_ = true;
  // A tier that found a log joins it: its lease, its claims and its
  // drops. One that found none writes nothing until it has a spill or a
  // purge to record.
  if (log_.is_open() && !read_only_) AppendLogLocked(&dropped);
  RDB_CHECK(dropped.empty());  // nothing is live yet
  return Status::OK();
}

ColdTier::ClockIt ColdTier::AddOrphanLocked(const std::string& path,
                                            int64_t bytes, SpillFileMeta meta,
                                            bool owned,
                                            const std::string& owner,
                                            int64_t admit_seq, bool logged) {
  Rec rec;
  rec.path = path;
  rec.file = Basename(path);
  rec.canon_key = meta.canon_key;
  rec.bytes = bytes;
  rec.second_chance = true;  // recovered entries get one grace round
  rec.owned = owned;
  rec.logged = logged;
  rec.owner = owned ? instance_ : owner;
  rec.admit_seq = admit_seq;
  rec.meta = std::move(meta);
  std::list<Rec>& list = owned ? clock_ : peers_;
  list.push_back(std::move(rec));
  ClockIt it = std::prev(list.end());
  by_key_[it->canon_key] = it;
  by_file_[it->file] = it;
  if (!it->meta.select_child_key.empty()) {
    by_child_.emplace(it->meta.select_child_key, it);
  }
  if (owned) {
    used_bytes_ += bytes;
    log_dirty_ = log_dirty_ || !logged;
  }
  num_orphans_.fetch_add(1, std::memory_order_relaxed);
  orphan_gen_.fetch_add(1);
  return it;
}

void ColdTier::UnfileOrphanLocked(ClockIt it) {
  if (it->meta.select_child_key.empty()) return;
  auto [lo, hi] = by_child_.equal_range(it->meta.select_child_key);
  for (auto f = lo; f != hi; ++f) {
    if (f->second == it) {
      by_child_.erase(f);
      return;
    }
  }
}

std::vector<SpillFileMeta> ColdTier::OrphanSlicesUnder(
    const std::string& child_key) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpillFileMeta> out;
  auto [lo, hi] = by_child_.equal_range(child_key);
  for (auto f = lo; f != hi; ++f) out.push_back(f->second->meta);
  // Bucket order depends on hashing history; graph ids of the rebuilt
  // nodes should not.
  std::sort(out.begin(), out.end(),
            [](const SpillFileMeta& a, const SpillFileMeta& b) {
              return a.canon_key < b.canon_key;
            });
  return out;
}

std::string ColdTier::FilePath(uint64_t name_hash) {
  // The writer's instance id keeps concurrent processes from ever racing
  // on one file name.
  const uint64_t id = next_file_id_++;
  return StrFormat("%s/r%016llx-%s-%llu.spill", dir_.c_str(),
                   static_cast<unsigned long long>(name_hash),
                   instance_.c_str(), static_cast<unsigned long long>(id));
}

bool ColdTier::Has(const RGNode* node) const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_.count(node) > 0 || pending_by_node_.count(node) > 0;
}

bool ColdTier::EntrySizes(const RGNode* node, int64_t* stored_bytes,
                          int64_t* raw_bytes) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = live_.find(node);
  if (it == live_.end()) return false;
  *stored_bytes = it->second->bytes;
  *raw_bytes = it->second->raw_bytes();
  return true;
}

void ColdTier::EvictRec(ClockIt it, std::vector<const RGNode*>* dropped_nodes) {
  if (it->node != nullptr) {
    live_.erase(it->node);
    if (dropped_nodes != nullptr) dropped_nodes->push_back(it->node);
  } else {
    UnfileOrphanLocked(it);
    num_orphans_.fetch_sub(1, std::memory_order_relaxed);
  }
  auto key_it = by_key_.find(it->canon_key);
  if (key_it != by_key_.end() && key_it->second == it) by_key_.erase(key_it);
  by_file_.erase(it->file);
  if (it->owned) {
    used_bytes_ -= it->bytes;
    std::remove(it->path.c_str());
    if (it->logged) {
      unlogged_drops_.push_back(it->file);
      log_dirty_ = true;
    }
    clock_.erase(it);
  } else {
    // A peer's entry: forget it locally, the owner keeps the file.
    peers_.erase(it);
  }
}

bool ColdTier::SweepToFit(int64_t need_bytes,
                          std::vector<const RGNode*>* dropped_nodes) {
  // Second chance over owned entries only (peer files neither count
  // against the cap nor may be deleted here): referenced entries get
  // their bit cleared and one more round at the back; each entry is
  // re-queued at most once per sweep, so the loop terminates.
  size_t requeues_left = clock_.size();
  while (used_bytes_ + need_bytes > capacity_bytes_ && !clock_.empty()) {
    ClockIt front = clock_.begin();
    if (front->second_chance && requeues_left > 0) {
      front->second_chance = false;
      --requeues_left;
      clock_.splice(clock_.end(), clock_, front);  // iterators stay valid
      continue;
    }
    EvictRec(front, dropped_nodes);
  }
  return used_bytes_ + need_bytes <= capacity_bytes_;
}

bool ColdTier::CommitSpillLocked(const RGNode* node,
                                 const std::string& canon_key,
                                 const std::string& path, int64_t bytes,
                                 SpillFileMeta stored,
                                 std::vector<const RGNode*>* dropped_nodes) {
  if (bytes > capacity_bytes_) {
    std::remove(path.c_str());
    return false;
  }
  auto dup = by_key_.find(canon_key);
  if (dup != by_key_.end()) EvictRec(dup->second, dropped_nodes);
  if (!SweepToFit(bytes, dropped_nodes)) {
    std::remove(path.c_str());
    return false;
  }
  Rec rec;
  rec.path = path;
  rec.file = Basename(path);
  rec.canon_key = canon_key;
  rec.bytes = bytes;
  rec.second_chance = false;  // earns its bit on first cold hit
  rec.owned = true;
  rec.owner = instance_;
  rec.node = node;
  rec.meta = std::move(stored);
  clock_.push_back(std::move(rec));
  ClockIt it = std::prev(clock_.end());
  live_[node] = it;
  by_key_[it->canon_key] = it;
  by_file_[it->file] = it;
  used_bytes_ += bytes;
  log_dirty_ = true;
  return true;
}

bool ColdTier::SpillAsync(const RGNode* node, const std::string& canon_key,
                          TablePtr snapshot, const SpillFileMeta& meta) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_ || read_only_) return false;
  if (live_.count(node) > 0 || pending_by_node_.count(node) > 0) return true;
  if (snapshot == nullptr) return false;
  if (snapshot->ByteSize() > capacity_bytes_) return false;  // can never fit
  PendingSpill ps;
  ps.node = node;
  ps.canon_key = canon_key;
  ps.snapshot = std::move(snapshot);
  ps.meta = meta;
  pending_.push_back(std::move(ps));
  pending_by_node_[node] = std::prev(pending_.end());
  if (!worker_.joinable()) worker_ = std::thread([this] { WorkerLoop(); });
  work_cv_.notify_one();
  return true;
}

void ColdTier::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  bool flushed = false;
  for (;;) {
    std::vector<const RGNode*> dropped;
    bool committed = false;
    const RGNode* node = nullptr;
    int64_t cb_stored = 0, cb_raw = 0;
    if (pending_.empty()) {
      if (!log_dirty_ || flushed || read_only_) {
        worker_busy_ = false;
        drain_cv_.notify_all();
        if (stop_worker_) return;
        work_cv_.wait(lock,
                      [this] { return stop_worker_ || !pending_.empty(); });
        continue;
      }
      // Committed spills reach the log in one batch before the worker
      // goes idle: a checkpoint of N spills takes one flock, and Drain()
      // returns only once they are in the log.
      flushed = true;
      AppendLogLocked(&dropped);
    } else {
      worker_busy_ = true;
      flushed = false;
      // Move the front job to a local list: it leaves the queue but its
      // iterator (held by pending_by_node_) stays valid, so loads keep
      // serving the snapshot and Remove/purge can still cancel it.
      std::list<PendingSpill> inflight;
      inflight.splice(inflight.begin(), pending_, pending_.begin());
      PendingSpill& ps = inflight.front();
      node = ps.node;
      const std::string path = FilePath(HashString(ps.canon_key));
      SpillWriteOptions wopts;
      wopts.compress = compress_;
      SpillFileMeta stored = ps.meta;
      TablePtr snapshot = ps.snapshot;

      lock.unlock();
      SpillWriteInfo written;
      const bool wrote =
          WriteSpillFile(path, *snapshot, stored, wopts, &written).ok();
      stored.raw_bytes = written.raw_bytes;
      const int64_t bytes = written.file_bytes;
      lock.lock();

      const bool canceled = ps.canceled;
      auto pit = pending_by_node_.find(node);
      if (pit != pending_by_node_.end() && &*pit->second == &ps) {
        pending_by_node_.erase(pit);
      }
      if (!wrote) {
        if (!canceled) dropped.push_back(node);
      } else if (canceled) {
        std::remove(path.c_str());
      } else {
        committed = CommitSpillLocked(node, ps.canon_key, path, bytes, stored,
                                      &dropped);
        if (committed) {
          cb_stored = bytes;
          cb_raw = live_.at(node)->raw_bytes();
        } else {
          dropped.push_back(node);
        }
      }
    }

    // Callbacks run with no cold-tier lock held: the drop callback
    // takes the recycler's graph/cache locks to demote.
    lock.unlock();
    if (committed && spilled_cb_) spilled_cb_(node, cb_stored, cb_raw);
    if (!dropped.empty() && drop_cb_) drop_cb_(dropped);
    lock.lock();
  }
}

void ColdTier::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [this] { return pending_.empty() && !worker_busy_; });
}

Status ColdTier::Load(const RGNode* node, TablePtr* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = live_.find(node);
  if (it == live_.end()) {
    auto pit = pending_by_node_.find(node);
    if (pit != pending_by_node_.end()) {
      // Spill still in flight: serve the pinned snapshot directly (the
      // write commits later; there is no miss window).
      *out = pit->second->snapshot;
      return Status::OK();
    }
    return Status::NotFound("no live cold-tier entry for node");
  }
  SpillFileMeta meta;
  Status st = ReadSpillTable(it->second->path, &meta, out);
  if (st.ok()) it->second->second_chance = true;
  return st;
}

Status ColdTier::LoadSlice(const RGNode* node, int filter_column,
                           const ColumnInterval& range, TablePtr* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = live_.find(node);
  if (it == live_.end()) {
    if (pending_by_node_.count(node) > 0) {
      // Pending spill: no encoded image to filter yet; the caller
      // falls back to the full in-memory snapshot.
      return Status::InvalidArgument("spill pending, no encoded image");
    }
    return Status::NotFound("no live cold-tier entry for node");
  }
  SpillFileMeta meta;
  Status st =
      ReadSpillTableFiltered(it->second->path, &meta, filter_column, range, out);
  if (st.ok()) it->second->second_chance = true;
  return st;
}

bool ColdTier::AdoptOrphan(const std::string& canon_key, const RGNode* node,
                           SpillFileMeta* meta, int64_t* bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_key_.find(canon_key);
  if (it == by_key_.end() || it->second->node != nullptr) return false;
  UnfileOrphanLocked(it->second);
  it->second->node = node;
  live_[node] = it->second;
  num_orphans_.fetch_sub(1, std::memory_order_relaxed);
  *meta = it->second->meta;
  *bytes = it->second->bytes;
  return true;
}

void ColdTier::CancelPendingLocked(PendingSpill* ps) {
  ps->canceled = true;
  for (auto qit = pending_.begin(); qit != pending_.end(); ++qit) {
    if (&*qit == ps) {
      pending_.erase(qit);
      if (pending_.empty()) drain_cv_.notify_all();
      return;
    }
  }
}

void ColdTier::Remove(const RGNode* node) {
  std::lock_guard<std::mutex> lock(mu_);
  auto pit = pending_by_node_.find(node);
  if (pit != pending_by_node_.end()) {
    // Cancel the queued/in-flight spill; the worker discards the file
    // if the write already started.
    CancelPendingLocked(&*pit->second);
    pending_by_node_.erase(pit);
  }
  auto it = live_.find(node);
  if (it == live_.end()) return;
  EvictRec(it->second, /*dropped_nodes=*/nullptr);
}

void ColdTier::ApplyPurgeLocked(const std::string& table, int64_t seq,
                                std::vector<const RGNode*>* dropped_nodes) {
  auto reads_table = [&table](const SpillFileMeta& meta) {
    const std::vector<std::string>& t = meta.base_tables;
    return std::find(t.begin(), t.end(), table) != t.end();
  };
  for (std::list<Rec>* list : {&clock_, &peers_}) {
    for (auto it = list->begin(); it != list->end();) {
      ClockIt cur = it++;
      // An entry added after the purge postdates the invalidation.
      if (cur->admit_seq < seq && reads_table(cur->meta)) {
        EvictRec(cur, dropped_nodes);
      }
    }
  }
  // Pending spills over the table are stale the same way; cancel
  // them so they never commit.
  for (auto pit = pending_by_node_.begin(); pit != pending_by_node_.end();) {
    PendingSpill& ps = *pit->second;
    if (!reads_table(ps.meta)) {
      ++pit;
      continue;
    }
    if (dropped_nodes != nullptr) dropped_nodes->push_back(ps.node);
    CancelPendingLocked(&ps);
    pit = pending_by_node_.erase(pit);
  }
}

void ColdTier::PurgeTable(const std::string& table,
                          std::vector<const RGNode*>* dropped_nodes) {
  std::lock_guard<std::mutex> lock(mu_);
  ApplyPurgeLocked(table, std::numeric_limits<int64_t>::max(), dropped_nodes);
  if (enabled_ && !read_only_) {
    // A cache may lose entries, never a purge: a failed append keeps it
    // queued for the next one.
    unlogged_purges_.push_back(table);
    log_dirty_ = true;
    AppendLogLocked(dropped_nodes);
  }
}

void ColdTier::ForfeitLocked(ClockIt it, const std::string& owner,
                             int64_t admit_seq) {
  used_bytes_ -= it->bytes;
  it->owned = false;
  it->logged = false;
  it->owner = owner;
  it->admit_seq = admit_seq;
  it->second_chance = true;
  peers_.splice(peers_.end(), clock_, it);
}

void ColdTier::ClaimLocked(ClockIt it) {
  used_bytes_ += it->bytes;
  it->owned = true;
  it->logged = false;
  it->owner = instance_;
  clock_.splice(clock_.end(), peers_, it);
  log_dirty_ = true;
}

void ColdTier::CatchUpLocked(const std::vector<fleet::LogRecord>& records,
                             bool resynced,
                             std::vector<const RGNode*>* dropped_nodes,
                             RefreshStats* stats) {
  const fleet::ManifestView& view = log_.view();
  const int64_t now_ms = fleet::UnixMillisNow();
  if (resynced) {
    // A whole file: what it no longer lists is gone — dropped, purged
    // (a compaction keeps no dead entry), or taken over by a peer.
    for (std::list<Rec>* list : {&clock_, &peers_}) {
      for (auto it = list->begin(); it != list->end();) {
        ClockIt cur = it++;
        if (cur->owned && !cur->logged) continue;  // not in any log yet
        if (cur->admit_seq == 0 && !cur->owned) continue;  // unlisted peer
        auto listed = view.entries.find(cur->file);
        if (listed == view.entries.end()) {
          EvictRec(cur, dropped_nodes);
        } else if (cur->owned && listed->second.owner != instance_) {
          ForfeitLocked(cur, listed->second.owner, listed->second.seq);
        }
      }
    }
  }
  for (const fleet::LogRecord& r : records) {
    switch (r.type) {
      case fleet::RecordType::kHeader:
      case fleet::RecordType::kOwner:
        break;  // leases are judged when they matter
      case fleet::RecordType::kPurge:
        ApplyPurgeLocked(r.name, r.seq, dropped_nodes);
        break;
      case fleet::RecordType::kDrop: {
        auto f = by_file_.find(r.name);
        if (f != by_file_.end() && !f->second->owned) {
          EvictRec(f->second, dropped_nodes);
        }
        break;
      }
      case fleet::RecordType::kAdd: {
        // Only what is still live at the end of this read, and never our
        // own record (our entries are tracked already).
        auto listed = view.entries.find(r.name);
        if (listed == view.entries.end() || listed->second.seq != r.seq ||
            r.owner == instance_) {
          break;
        }
        auto f = by_file_.find(r.name);
        if (f != by_file_.end()) {
          ClockIt rec = f->second;
          if (rec->owned) {
            // A peer took the file over after our lease lapsed: deletion
            // rights must never be shared, so forfeit it.
            ForfeitLocked(rec, r.owner, r.seq);
          } else {
            rec->owner = r.owner;
            rec->admit_seq = r.seq;
          }
          break;
        }
        if (by_key_.count(r.canon_key) > 0) break;  // an image we hold
        const std::string path = dir_ + "/" + r.name;
        SpillFileMeta meta;
        std::error_code size_ec;
        const int64_t bytes = static_cast<int64_t>(fs::file_size(path, size_ec));
        if (size_ec || !ReadSpillMeta(path, &meta).ok()) break;  // torn/gone
        const bool claim = !read_only_ && !view.OwnerLive(r.owner, now_ms);
        AddOrphanLocked(path, bytes, std::move(meta), claim, r.owner, r.seq,
                        /*logged=*/false);
        if (stats != nullptr) {
          ++(claim ? stats->lease_takeovers : stats->new_peer_entries);
        }
        break;
      }
    }
  }
  // Claims count against our cap.
  SweepToFit(0, dropped_nodes);
}

bool ColdTier::AppendLogLocked(std::vector<const RGNode*>* dropped_nodes,
                               bool leaving) {
  fleet::DirLock dlock;
  if (!fleet::DirLock::Acquire(fleet::ManifestLog::LockPath(dir_), &dlock)
           .ok()) {
    return false;  // degrade: retried at the next append
  }
  std::vector<fleet::LogRecord> fresh;
  bool resynced = false;
  if (log_.is_open()) {
    if (!log_.Tail(&fresh, &resynced).ok()) return false;
  } else {
    if (!log_.Open(dir_, /*writable=*/true, /*create=*/true, &fresh).ok()) {
      return false;
    }
    resynced = true;
  }
  CatchUpLocked(fresh, resynced, dropped_nodes, nullptr);

  // Purges first, then drops and adds, then the owner record, whose seq
  // marks everything before it as applied by this instance.
  const int64_t now_ms = fleet::UnixMillisNow();
  std::vector<fleet::LogRecord> batch;
  for (const std::string& table : unlogged_purges_) {
    fleet::LogRecord purge;
    purge.type = fleet::RecordType::kPurge;
    purge.name = table;
    batch.push_back(std::move(purge));
  }
  for (const std::string& file : unlogged_drops_) {
    fleet::LogRecord drop;
    drop.type = fleet::RecordType::kDrop;
    drop.name = file;
    batch.push_back(std::move(drop));
  }
  std::vector<std::pair<size_t, ClockIt>> adds;
  for (auto it = clock_.begin(); it != clock_.end(); ++it) {
    if (it->logged) continue;
    adds.emplace_back(batch.size(), it);
    fleet::LogRecord add;
    add.type = fleet::RecordType::kAdd;
    add.name = it->file;
    add.canon_key = it->canon_key;
    add.owner = instance_;
    add.tables = it->meta.base_tables;
    batch.push_back(std::move(add));
  }
  fleet::LogRecord self;
  self.type = fleet::RecordType::kOwner;
  self.owner = instance_;
  self.value = leaving ? 0 : now_ms + lease_ms_;
  batch.push_back(self);
  if (!log_.Append(&batch, now_ms).ok()) return false;

  unlogged_purges_.clear();
  unlogged_drops_.clear();
  log_dirty_ = false;
  lease_expiry_ms_ = self.value;
  for (const auto& [at, it] : adds) {
    it->logged = true;
    it->admit_seq = batch[at].seq;
  }
  // Peers' entries read above that predate our purge are dead by it.
  for (const fleet::LogRecord& r : batch) {
    if (r.type == fleet::RecordType::kPurge) {
      ApplyPurgeLocked(r.name, r.seq, dropped_nodes);
    }
  }
  return true;
}

Status ColdTier::RefreshPeers(std::vector<const RGNode*>* dropped_nodes,
                              RefreshStats* stats) {
  *stats = RefreshStats{};
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_) return Status::OK();
  // Lock-free read: writers append whole frames under the flock, and a
  // frame still being written reads as bad and is read again next time.
  std::vector<fleet::LogRecord> fresh;
  bool resynced = false;
  if (log_.is_open()) {
    log_.Tail(&fresh, &resynced, &stats->log_bytes_read).ok();
  } else if (log_.Open(dir_, !read_only_, /*create=*/false, &fresh).ok()) {
    resynced = true;
    stats->log_bytes_read = log_.offset();
  }
  CatchUpLocked(fresh, resynced, dropped_nodes, stats);
  if (read_only_) return Status::OK();

  // Stale-lease takeover: a peer whose lease lapsed forfeits its files.
  const int64_t now_ms = fleet::UnixMillisNow();
  for (auto it = peers_.begin(); it != peers_.end();) {
    ClockIt cur = it++;
    if (log_.view().OwnerLive(cur->owner, now_ms)) continue;
    ClaimLocked(cur);
    ++stats->lease_takeovers;
  }
  SweepToFit(0, dropped_nodes);
  if (log_dirty_ ||
      (log_.is_open() && now_ms + lease_ms_ / 2 > lease_expiry_ms_)) {
    AppendLogLocked(dropped_nodes);
  }
  return Status::OK();
}

Status ColdTier::CheckConsistency() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!enabled_) return Status::OK();
  drain_cv_.wait(lock, [this] { return pending_.empty() && !worker_busy_; });
  auto fail = [](const std::string& file, const char* what) {
    return Status::Internal(
        StrFormat("cold tier: %s: %s", file.c_str(), what));
  };

  int64_t owned_bytes = 0, orphans = 0;
  for (const std::list<Rec>* list : {&clock_, &peers_}) {
    for (auto it = list->begin(); it != list->end(); ++it) {
      const Rec& r = *it;
      if (r.owned != (list == &clock_)) return fail(r.file, "in the wrong list");
      auto k = by_key_.find(r.canon_key);
      auto f = by_file_.find(r.file);
      if (k == by_key_.end() || &*k->second != &r) {
        return fail(r.file, "not filed under its key");
      }
      if (f == by_file_.end() || &*f->second != &r) {
        return fail(r.file, "not filed under its file name");
      }
      if (r.node == nullptr) {
        ++orphans;
      } else {
        auto l = live_.find(r.node);
        if (l == live_.end() || &*l->second != &r) {
          return fail(r.file, "its node does not map to it");
        }
        if (pending_by_node_.count(r.node) > 0) {
          return fail(r.file, "its node is both live and pending");
        }
      }
      if (!r.owned) continue;
      owned_bytes += r.bytes;
      SpillFileMeta meta;
      if (!ReadSpillMeta(r.path, &meta).ok()) {
        return fail(r.file, "owned, but its file is missing or unreadable");
      }
      if (meta.canon_key != r.canon_key) {
        return fail(r.file, "file header names another key");
      }
    }
  }
  const size_t tracked = clock_.size() + peers_.size();
  if (by_key_.size() != tracked || by_file_.size() != tracked ||
      live_.size() + static_cast<size_t>(orphans) != tracked ||
      num_orphans_.load() != orphans) {
    return Status::Internal("cold tier: maps disagree with the entry lists");
  }
  if (used_bytes_ != owned_bytes || used_bytes_ > capacity_bytes_) {
    return Status::Internal(StrFormat(
        "cold tier: used_bytes %lld, owned bytes %lld, cap %lld",
        static_cast<long long>(used_bytes_),
        static_cast<long long>(owned_bytes),
        static_cast<long long>(capacity_bytes_)));
  }

  // The log: a replay up to our offset gives our view, and the view's
  // entries are our logged entries, plus drops not appended yet.
  fleet::ManifestView replay;
  if (log_.is_open()) RDB_RETURN_NOT_OK(log_.ReplayPrefix(&replay));
  const fleet::ManifestView& view = log_.view();
  if (replay.last_seq != view.last_seq ||
      replay.entries.size() != view.entries.size() ||
      replay.purges.size() != view.purges.size()) {
    return Status::Internal(StrFormat(
        "cold tier: log replay to seq %lld lists %zu entries and %zu "
        "purges; the tier's view is at seq %lld with %zu and %zu",
        static_cast<long long>(replay.last_seq), replay.entries.size(),
        replay.purges.size(), static_cast<long long>(view.last_seq),
        view.entries.size(), view.purges.size()));
  }
  std::vector<std::string> drops = unlogged_drops_;
  std::sort(drops.begin(), drops.end());
  for (const auto& [file, e] : replay.entries) {
    auto v = view.entries.find(file);
    if (v == view.entries.end() || v->second.seq != e.seq ||
        v->second.owner != e.owner) {
      return fail(file, "the log's replay and the tier's view differ");
    }
    if (e.owner != instance_) continue;
    auto f = by_file_.find(file);
    const bool tracked_logged = f != by_file_.end() && f->second->owned &&
                                f->second->logged &&
                                f->second->admit_seq == e.seq &&
                                f->second->canon_key == e.canon_key;
    if (!tracked_logged && !std::binary_search(drops.begin(), drops.end(), file)) {
      return fail(file, "the log lists it as ours, the tier does not");
    }
  }
  for (const std::list<Rec>* list : {&clock_, &peers_}) {
    for (const Rec& r : *list) {
      if (r.owned ? !r.logged : r.admit_seq == 0) {
        // Not logged yet: a claim awaiting the next append, or a read-only
        // tier's unlisted file.
        if (r.owned && !log_dirty_) return fail(r.file, "unlogged, not queued");
        continue;
      }
      auto e = replay.entries.find(r.file);
      if (e == replay.entries.end() || e->second.canon_key != r.canon_key ||
          e->second.seq != r.admit_seq ||
          e->second.owner != (r.owned ? instance_ : r.owner)) {
        return fail(r.file, "tracked, but not live in the log as tracked");
      }
    }
  }
  return Status::OK();
}

ColdTierStats ColdTier::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ColdTierStats s;
  s.entries = static_cast<int64_t>(clock_.size() + peers_.size());
  s.orphans = num_orphans_.load(std::memory_order_relaxed);
  s.used_bytes = used_bytes_;
  s.capacity_bytes = capacity_bytes_;
  s.peer_entries = static_cast<int64_t>(peers_.size());
  s.pending_spills = static_cast<int64_t>(pending_.size());
  for (const std::list<Rec>* list : {&clock_, &peers_}) {
    for (const Rec& r : *list) s.raw_bytes += r.raw_bytes();
  }
  return s;
}

}  // namespace recycledb
