// Content-addressed result store for the campaign service. Keys are
// SHA-256 hex digests of the canonical cell material (fault/cell.h); the
// value is the deterministic CampaignResult JSON exactly as the campaign
// produced it. Because the key covers every result-affecting knob and
// the value bytes come from the deterministic writer, a lookup either
// misses or returns bytes that are byte-identical to what a fresh
// execution would produce — the store can never serve a stale or
// divergent answer, only save work.
//
// Two tiers: an in-memory map (always on) and an optional directory
// (one "<key>.json" file per entry, written via temp-file + rename so a
// crashed daemon never leaves a torn entry). The directory makes cached
// cells survive daemon restarts and lets daemons share a store.
//
// The disk tier does not trust its bytes: each file starts with a line
// "ferrum-cache-v1 <sha256 of the value>" and a lookup verifies it. A
// truncated, bit-flipped or headerless file is a miss, never a result:
// it is counted in "service/cache/corrupt" and deleted, so the next
// store of the key writes a good entry.
#pragma once

#include <cstddef>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "telemetry/metrics.h"

namespace ferrum::service {

class ResultCache {
 public:
  /// `dir` empty = memory-only. A non-empty directory is created if
  /// missing; failure to create it degrades to memory-only with a
  /// warning on stderr (the daemon keeps serving). Corrupt disk entries
  /// are counted in `metrics` when given.
  explicit ResultCache(std::string dir,
                       telemetry::Registry* metrics = nullptr);

  /// The stored bytes for `key`, or nullopt. A disk entry found on a
  /// memory miss is promoted into memory.
  std::optional<std::string> lookup(const std::string& key);

  /// Stores `bytes` under `key`. First writer wins; a concurrent or
  /// later store of the same key is a no-op (by the determinism
  /// contract its bytes are identical anyway). `replace` overrides
  /// that: the entry is rewritten even if present — needed by values
  /// whose *validation certificates* are context-dependent while their
  /// key deliberately is not (compose's ferrum-section-v1 summaries: an
  /// entry whose certificate went stale must give way to the freshly
  /// re-campaigned one, or its section would stay cold forever).
  void store(const std::string& key, const std::string& bytes,
             bool replace = false);

  /// In-memory entry count (diagnostics only).
  std::size_t entries() const;

  const std::string& dir() const { return dir_; }

 private:
  std::string file_path(const std::string& key) const;

  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::string> memory_;
  std::string dir_;
  telemetry::Registry* metrics_;
};

}  // namespace ferrum::service
