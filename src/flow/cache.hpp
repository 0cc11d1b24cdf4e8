// Content-addressed flow cache: one flat directory of artifacts.
//
// Key scheme (see DESIGN.md Section 9): a stage's cache key is the 128-bit
// content hash of
//
//   code version ++ stage name ++ stage config ++ design source text
//                ++ design attributes ++ cache keys of every dependency
//
// each component length-prefixed. Dependency keys chain, so editing a
// stage's config (or the netlist text) re-keys exactly that stage and its
// downstream cone — everything else is served from cache.
//
// On-disk layout:
//
//   <dir>/<key>.art     artifact, one file per key (32 lowercase hex chars)
//
// A store writes a uniquely-named temp file next to the entry and
// atomically renames it into place, so a killed run never leaves a
// half-written (and thus poisoned) entry; that rename is also what makes
// interrupted sweeps resumable. Readers see either a complete artifact or a
// miss, and a corrupt entry also reads as a miss (the next store replaces
// it). Nothing is ever evicted: the paper's working set is about a hundred
// entries and a few megabytes, so reclaiming space means deleting the
// directory.
#pragma once

#include "flow/artifact.hpp"

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

namespace flh {

/// Bump when stage semantics change in a way that must invalidate all
/// previously cached artifacts (part of every cache key). Layout changes
/// need no bump: an entry a different layout wrote sits at a path this one
/// never reads, so it is a cold miss, never misread.
inline constexpr std::string_view kFlowCodeVersion = "flh-flow-2";

/// Validated 128-bit cache key. Construction is the only place validation
/// happens — a CacheKey in hand is always well-formed, so the path helper
/// cannot fail at use-time.
class CacheKey {
public:
    CacheKey() = default; ///< null key (all zeros); valid but never produced by hashing

    [[nodiscard]] static CacheKey fromHash(Hash128 h) noexcept { return CacheKey(h); }

    /// Parse 32 hex chars (the report rendering). Throws
    /// std::invalid_argument on anything else.
    [[nodiscard]] static CacheKey parse(std::string_view hex);

    /// 32 lowercase hex chars (hi then lo) — matches Hash128::hex().
    [[nodiscard]] std::string hex() const { return h_.hex(); }

    [[nodiscard]] Hash128 hash() const noexcept { return h_; }
    [[nodiscard]] bool operator==(const CacheKey&) const noexcept = default;

private:
    explicit CacheKey(Hash128 h) noexcept : h_(h) {}
    Hash128 h_;
};

struct CacheConfig {
    std::string dir = ".flowcache";
    bool enabled = true; ///< false: every stage recomputes, nothing is touched
};

/// Point-in-time cache statistics: this handle's counters plus the on-disk
/// totals of the directory scan stats() makes.
struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t entries = 0; ///< `<key>.art` files on disk
    std::uint64_t bytes = 0;   ///< their total size
};

/// The cache handle. Thread-safe; handles in any number of processes may
/// share one directory (the last rename of a key wins).
class FlowCache {
public:
    /// Opens the cache rooted at `cfg.dir`, created on the first store.
    /// Throws on an empty directory name.
    explicit FlowCache(CacheConfig cfg);

    /// The artifact stored under `key`, or nullopt on a miss. A corrupt
    /// entry is a miss.
    [[nodiscard]] std::optional<Artifact> get(const CacheKey& key);

    /// Store `art` under `key`: temp file + atomic rename. A failed store
    /// removes its temp file before rethrowing.
    void put(const CacheKey& key, const Artifact& art);

    /// Handle counters plus a scan of the directory for the entry/byte
    /// totals (which also refreshes the cache.entries/bytes obs gauges).
    [[nodiscard]] CacheStats stats() const;

private:
    [[nodiscard]] std::string artifactPath(const CacheKey& key) const;

    CacheConfig cfg_;
    std::atomic<std::uint64_t> hits_{0}, misses_{0}, stores_{0};
};

} // namespace flh
