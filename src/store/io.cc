#include "store/io.h"

#include <algorithm>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace zss::store {

namespace {

class PosixFile final : public File {
 public:
  explicit PosixFile(int fd) : fd_(fd) {}
  ~PosixFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  std::size_t write_at(std::uint64_t off, const void* data,
                       std::size_t n) override {
    const auto* p = static_cast<const std::uint8_t*>(data);
    std::size_t done = 0;
    while (done < n) {
      const ssize_t w = ::pwrite(fd_, p + done, n - done,
                                 static_cast<off_t>(off + done));
      if (w <= 0) break;
      done += static_cast<std::size_t>(w);
    }
    return done;
  }

  std::size_t read_at(std::uint64_t off, void* data, std::size_t n) override {
    auto* p = static_cast<std::uint8_t*>(data);
    std::size_t done = 0;
    while (done < n) {
      const ssize_t r =
          ::pread(fd_, p + done, n - done, static_cast<off_t>(off + done));
      if (r <= 0) break;
      done += static_cast<std::size_t>(r);
    }
    return done;
  }

  bool sync() override { return ::fsync(fd_) == 0; }

  bool truncate(std::uint64_t size) override {
    return ::ftruncate(fd_, static_cast<off_t>(size)) == 0;
  }

  std::uint64_t size() override {
    struct stat st{};
    if (::fstat(fd_, &st) != 0) return 0;
    return static_cast<std::uint64_t>(st.st_size);
  }

 private:
  int fd_;
};

class MemFile final : public File {
 public:
  explicit MemFile(std::shared_ptr<std::vector<std::uint8_t>> data)
      : data_(std::move(data)) {}

  std::size_t write_at(std::uint64_t off, const void* data,
                       std::size_t n) override {
    if (off + n > data_->size()) data_->resize(off + n, 0);
    // An empty file has no buffer: memcpy of 0 bytes to null is still UB.
    if (n > 0) std::memcpy(data_->data() + off, data, n);
    return n;
  }

  std::size_t read_at(std::uint64_t off, void* data, std::size_t n) override {
    if (off >= data_->size()) return 0;
    const std::size_t avail =
        std::min<std::uint64_t>(n, data_->size() - off);
    std::memcpy(data, data_->data() + off, avail);
    return avail;
  }

  bool sync() override { return true; }

  bool truncate(std::uint64_t size) override {
    data_->resize(size, 0);
    return true;
  }

  std::uint64_t size() override { return data_->size(); }

 private:
  std::shared_ptr<std::vector<std::uint8_t>> data_;
};

}  // namespace

std::unique_ptr<File> PosixEnv::open(const std::string& name,
                                     bool truncate_existing) {
  int flags = O_RDWR | O_CREAT | O_CLOEXEC;
  if (truncate_existing) flags |= O_TRUNC;
  const int fd = ::open(name.c_str(), flags, 0644);
  if (fd < 0) return nullptr;
  return std::make_unique<PosixFile>(fd);
}

bool PosixEnv::exists(const std::string& name) {
  struct stat st{};
  return ::stat(name.c_str(), &st) == 0;
}

bool PosixEnv::rename(const std::string& from, const std::string& to) {
  return ::rename(from.c_str(), to.c_str()) == 0;
}

bool PosixEnv::remove(const std::string& name) {
  return ::unlink(name.c_str()) == 0;
}

std::unique_ptr<File> MemEnv::open(const std::string& name,
                                   bool truncate_existing) {
  auto& slot = files_[name];
  if (slot == nullptr) {
    slot = std::make_shared<std::vector<std::uint8_t>>();
  } else if (truncate_existing) {
    slot->clear();
  }
  return std::make_unique<MemFile>(slot);
}

bool MemEnv::exists(const std::string& name) {
  return files_.count(name) != 0;
}

bool MemEnv::rename(const std::string& from, const std::string& to) {
  const auto it = files_.find(from);
  if (it == files_.end()) return false;
  files_[to] = it->second;
  files_.erase(it);
  return true;
}

bool MemEnv::remove(const std::string& name) {
  return files_.erase(name) != 0;
}

std::vector<std::uint8_t>* MemEnv::bytes(const std::string& name) {
  const auto it = files_.find(name);
  return it == files_.end() ? nullptr : it->second.get();
}

void FaultyFile::corrupt_byte(std::uint64_t off, std::uint8_t mask) {
  std::uint8_t b = 0;
  if (inner_->read_at(off, &b, 1) != 1) return;
  b = static_cast<std::uint8_t>(b ^ mask);
  inner_->write_at(off, &b, 1);
}

std::size_t FaultyFile::write_at(std::uint64_t off, const void* data,
                                 std::size_t n) {
  std::size_t allowed = n;
  if (has_write_limit_) {
    if (written_ >= write_limit_) return 0;
    allowed = std::min<std::uint64_t>(n, write_limit_ - written_);
  }
  const std::size_t wrote = inner_->write_at(off, data, allowed);
  written_ += wrote;
  return wrote;  // < n exactly when the limit tore this write
}

std::size_t FaultyFile::read_at(std::uint64_t off, void* data, std::size_t n) {
  std::size_t want = n;
  if (has_short_read_) {
    want = std::min(n, short_read_bytes_);
    has_short_read_ = false;
  }
  return inner_->read_at(off, data, want);
}

bool FaultyFile::sync() {
  if (failing_syncs_ > 0) {
    --failing_syncs_;
    return false;
  }
  return inner_->sync();
}

bool FaultyFile::truncate(std::uint64_t size) { return inner_->truncate(size); }

std::uint64_t FaultyFile::size() { return inner_->size(); }

}  // namespace zss::store
