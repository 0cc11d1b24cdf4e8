#include "flow/cache.hpp"

#include "obs/telemetry.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <unistd.h>

namespace fs = std::filesystem;

namespace flh {

namespace {

constexpr std::string_view kArtSuffix = ".art";

int hexVal(char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
}

/// True for an artifact file name: 32 hex chars then ".art".
bool isArtifactName(std::string_view name) {
    if (name.size() != 32 + kArtSuffix.size() || !name.ends_with(kArtSuffix)) return false;
    for (const char c : name.substr(0, 32))
        if (hexVal(c) < 0) return false;
    return true;
}

std::optional<std::string> readFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return std::nullopt;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

struct CacheTelemetry {
    obs::Counter& hits = obs::counter("cache.hits");
    obs::Counter& misses = obs::counter("cache.misses");
    obs::Counter& stores = obs::counter("cache.stores");
    obs::Gauge& entries = obs::gauge("cache.entries");
    obs::Gauge& bytes = obs::gauge("cache.bytes");

    static const CacheTelemetry& get() {
        static const CacheTelemetry t;
        return t;
    }
};

} // namespace

// ---- CacheKey ----------------------------------------------------------

CacheKey CacheKey::parse(std::string_view hex) {
    if (hex.size() != 32)
        throw std::invalid_argument("CacheKey: expected 32 hex chars, got '" +
                                    std::string(hex) + "'");
    Hash128 h;
    for (std::size_t i = 0; i < 32; ++i) {
        const int v = hexVal(hex[i]);
        if (v < 0)
            throw std::invalid_argument("CacheKey: non-hex char in '" + std::string(hex) + "'");
        if (i < 16)
            h.hi = (h.hi << 4) | static_cast<std::uint64_t>(v);
        else
            h.lo = (h.lo << 4) | static_cast<std::uint64_t>(v);
    }
    return CacheKey(h);
}

// ---- FlowCache ---------------------------------------------------------

FlowCache::FlowCache(CacheConfig cfg) : cfg_(std::move(cfg)) {
    if (cfg_.dir.empty()) throw std::runtime_error("FlowCache: empty directory");
}

std::string FlowCache::artifactPath(const CacheKey& key) const {
    return cfg_.dir + "/" + key.hex() + std::string(kArtSuffix);
}

std::optional<Artifact> FlowCache::get(const CacheKey& key) {
    if (const std::optional<std::string> bytes = readFile(artifactPath(key))) {
        try {
            Artifact art = Artifact::deserialize(*bytes);
            hits_.fetch_add(1, std::memory_order_relaxed);
            CacheTelemetry::get().hits.add(1);
            return art;
        } catch (const std::exception&) {
            // corrupt entry == miss; put() will replace it
        }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    CacheTelemetry::get().misses.add(1);
    return std::nullopt;
}

void FlowCache::put(const CacheKey& key, const Artifact& art) {
    fs::create_directories(cfg_.dir);

    // Unique temp name per store call: concurrent workers (and processes
    // sharing one cache) must not clobber each other's in-flight writes.
    // The final rename is atomic either way.
    static std::atomic<std::uint64_t> counter{0};
    const fs::path path = artifactPath(key);
    const fs::path tmp = cfg_.dir + "/" + key.hex() + ".tmp" +
                         std::to_string(counter.fetch_add(1)) + "." +
                         std::to_string(static_cast<std::uint64_t>(::getpid()));
    const std::string bytes = art.serialize();
    try {
        {
            std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
            if (!out) throw std::runtime_error("FlowCache: cannot write " + tmp.string());
            out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
            if (!out) throw std::runtime_error("FlowCache: short write to " + tmp.string());
        }
        fs::rename(tmp, path);
    } catch (...) {
        // Never leave an orphaned temp behind a failed store (ENOSPC,
        // cross-device rename, target occupied by a directory, ...).
        std::error_code ec;
        fs::remove(tmp, ec);
        throw;
    }
    stores_.fetch_add(1, std::memory_order_relaxed);
    CacheTelemetry::get().stores.add(1);
}

CacheStats FlowCache::stats() const {
    CacheStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.stores = stores_.load(std::memory_order_relaxed);
    std::error_code ec;
    for (fs::directory_iterator it(cfg_.dir, ec), end; !ec && it != end; it.increment(ec)) {
        if (!isArtifactName(it->path().filename().string())) continue;
        std::error_code size_ec;
        const std::uintmax_t size = it->file_size(size_ec);
        if (size_ec) continue; // a directory squatting on the name, or gone
        ++s.entries;
        s.bytes += size;
    }
    CacheTelemetry::get().entries.set(static_cast<std::int64_t>(s.entries));
    CacheTelemetry::get().bytes.set(static_cast<std::int64_t>(s.bytes));
    return s;
}

} // namespace flh
