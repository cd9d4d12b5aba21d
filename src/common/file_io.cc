#include "common/file_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace recycledb {

Status ReadFdFrom(int fd, int64_t offset, std::string* out) {
  struct stat st;
  if (::fstat(fd, &st) == 0 && st.st_size > offset) {
    out->reserve(out->size() + static_cast<size_t>(st.st_size - offset));
  }
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::pread(fd, buf, sizeof(buf), offset);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("read failed: ") +
                              std::strerror(errno));
    }
    if (n == 0) return Status::OK();
    out->append(buf, static_cast<size_t>(n));
    offset += n;
  }
}

Status ReadWholeFile(const std::string& path, std::string* out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no file at " + path);
    return Status::Internal("cannot open " + path + ": " +
                            std::strerror(errno));
  }
  Status st = ReadFdFrom(fd, 0, out);
  ::close(fd);
  if (!st.ok()) return Status::Internal(path + ": " + st.message());
  return Status::OK();
}

Status WriteFileAtomic(const std::string& path, std::string_view data) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::Internal("cannot create " + tmp + ": " +
                            std::strerror(errno));
  }
  bool ok = true;
  for (size_t done = 0; ok && done < data.size();) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0 && errno == EINTR) continue;
    ok = n > 0;
    if (ok) done += static_cast<size_t>(n);
  }
  ok = ::close(fd) == 0 && ok;
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot write " + path);
  }
  return Status::OK();
}

}  // namespace recycledb
