#include "service/cache.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>

#include "support/hash.h"

namespace ferrum::service {

namespace {

constexpr std::string_view kEntryMagic = "ferrum-cache-v1 ";

/// The value bytes of a disk entry, or nullopt when its header is missing
/// or its digest does not match the bytes that follow.
std::optional<std::string> verified_value(const std::string& file) {
  const std::size_t digest_at = kEntryMagic.size();
  const std::size_t value_at = digest_at + 64 + 1;
  if (file.size() < value_at || file.compare(0, digest_at, kEntryMagic) != 0 ||
      file[value_at - 1] != '\n') {
    return std::nullopt;
  }
  std::string value = file.substr(value_at);
  if (sha256_hex(value) != std::string_view(file).substr(digest_at, 64)) {
    return std::nullopt;
  }
  return value;
}

bool plausible_key(const std::string& key) {
  if (key.size() != 64) return false;
  for (char c : key) {
    const bool hex =
        (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!hex) return false;
  }
  return true;
}

}  // namespace

ResultCache::ResultCache(std::string dir, telemetry::Registry* metrics)
    : dir_(std::move(dir)), metrics_(metrics) {
  if (dir_.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    std::fprintf(stderr,
                 "warning: cannot create cache dir %s (%s); "
                 "running memory-only\n",
                 dir_.c_str(), ec.message().c_str());
    dir_.clear();
  }
}

std::string ResultCache::file_path(const std::string& key) const {
  return dir_ + "/" + key + ".json";
}

std::optional<std::string> ResultCache::lookup(const std::string& key) {
  if (!plausible_key(key)) return std::nullopt;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = memory_.find(key);
    if (it != memory_.end()) return it->second;
  }
  if (dir_.empty()) return std::nullopt;
  const std::string path = file_path(key);
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) return std::nullopt;
  in.close();
  std::optional<std::string> bytes = verified_value(buffer.str());
  if (!bytes.has_value()) {
    if (metrics_ != nullptr) metrics_->counter("service/cache/corrupt").add(1);
    std::fprintf(stderr, "warning: dropping corrupt cache entry %s\n",
                 path.c_str());
    std::remove(path.c_str());
    return std::nullopt;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  return memory_.emplace(key, std::move(*bytes)).first->second;
}

void ResultCache::store(const std::string& key, const std::string& bytes,
                        const bool replace) {
  if (!plausible_key(key)) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = memory_.emplace(key, bytes);
    if (!inserted) {
      if (!replace || it->second == bytes) return;  // first writer won
      it->second = bytes;
    }
  }
  if (dir_.empty()) return;
  // Temp-file + rename: readers (this daemon after a restart, or a
  // sibling daemon sharing the dir) never observe a torn entry. The
  // temp name is key-unique, so two daemons racing on one key just
  // rename twice — same bytes either way.
  const std::string tmp = dir_ + "/.tmp." + key;
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    std::fprintf(stderr, "warning: cannot write cache entry %s\n",
                 tmp.c_str());
    return;
  }
  const std::string header =
      std::string(kEntryMagic) + sha256_hex(bytes) + "\n";
  const bool ok =
      std::fwrite(header.data(), 1, header.size(), file) == header.size() &&
      std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
  std::fclose(file);
  if (!ok) {
    std::remove(tmp.c_str());
    std::fprintf(stderr, "warning: short write to cache entry %s\n",
                 tmp.c_str());
    return;
  }
  if (std::rename(tmp.c_str(), file_path(key).c_str()) != 0) {
    std::remove(tmp.c_str());
  }
}

std::size_t ResultCache::entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return memory_.size();
}

}  // namespace ferrum::service
