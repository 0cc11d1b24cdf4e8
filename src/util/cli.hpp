// Shared command-line machinery for the flh_* CLIs.
//
// Every driver binary (flh_flow, flh_fuzz, flh_benchdiff) used to
// hand-roll the same loop: a `next()` lambda guarding
// missing values, a from_chars parseNum with a usage error, `--help`
// handling, and the common --threads/--trace/--metrics/--out/--quiet
// flag block. ArgScan + CommonFlags are that loop extracted once.
// This layer is pure argument parsing — it knows nothing about telemetry;
// callers hand CommonFlags::trace_path etc. to the obs layer themselves
// (flh_util sits below flh_obs in the link order).
//
//   ArgScan scan(argc, argv, "flh_flow", kUsage);
//   CommonFlags common;
//   while (scan.next()) {
//       if (common.tryParse(scan)) continue;
//       if (scan.is("--circuits")) circuits = scan.list();
//       else if (scan.is("--seed")) seed = scan.num<std::uint64_t>();
//       else scan.unknownOption();
//   }
#pragma once

#include "util/strings.hpp"

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace flh::cli {

/// One pass over argv with the repo's established conventions: `--help`/
/// `-h` prints the usage text and exits 0, a flag missing its value or
/// failing to parse exits 2 with a "tool: message\nusage..." diagnostic.
class ArgScan {
public:
    ArgScan(int argc, char** argv, std::string tool, std::string usage);

    /// Advance to the next argument; false once argv is exhausted.
    /// Consumes --help/-h itself (prints usage, exits 0).
    [[nodiscard]] bool next();

    /// The current argument (valid after a true next()).
    [[nodiscard]] const std::string& arg() const noexcept { return arg_; }
    [[nodiscard]] bool is(std::string_view flag) const noexcept { return arg_ == flag; }

    /// The value following the current flag; usageError if argv ends first.
    [[nodiscard]] std::string value();

    /// Typed value parsing for the current flag (whole-string from_chars).
    template <typename T> [[nodiscard]] T num() { return parse<T>(arg_, value()); }

    /// Comma-separated list value, trimmed, empties dropped; usageError on
    /// an empty result (a bare "--flag ,," is always a mistake).
    [[nodiscard]] std::vector<std::string> list();
    template <typename T> [[nodiscard]] std::vector<T> numList() {
        const std::string flag = arg_;
        std::vector<T> out;
        for (const std::string& s : list()) out.push_back(parse<T>(flag, s));
        return out;
    }

    [[noreturn]] void usageError(const std::string& msg) const;
    [[noreturn]] void unknownOption() const { usageError("unknown option '" + arg_ + "'"); }

    [[nodiscard]] const std::string& tool() const noexcept { return tool_; }

    /// The shared parseNum: accepts exactly one whole number token.
    template <typename T> [[nodiscard]] T parse(const std::string& flag, const std::string& s) const {
        T v{};
        const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
        if (ec != std::errc() || p != s.data() + s.size())
            usageError("bad value for " + flag + ": '" + s + "'");
        return v;
    }

private:
    int argc_;
    char** argv_;
    int i_ = 0; ///< index of the current argument
    std::string tool_;
    std::string usage_;
    std::string arg_;
};

/// The flag block shared by every long-running driver:
///   --threads N   worker threads (0 = one per hardware thread)
///   --trace FILE  Chrome trace_event export path
///   --metrics FILE telemetry metrics export path
///   --out DIR     bench-export directory (overrides FLH_BENCH_OUT)
///   --quiet       suppress console output
/// tryParse() consumes a matching flag and returns true, so driver loops
/// keep one `if (common.tryParse(scan)) continue;` line. Drivers whose
/// --threads has different semantics (flh_fuzz takes a list) set
/// parse_threads = false and handle it themselves.
struct CommonFlags {
    unsigned threads = 1;
    bool threads_set = false; ///< --threads appeared (for override defaults)
    std::string trace_path;
    std::string metrics_path;
    std::string out_flag;
    bool quiet = false;
    bool parse_threads = true;

    bool tryParse(ArgScan& scan);

    /// True when any telemetry export was requested (the established cue
    /// for obs::setEnabled(true)).
    [[nodiscard]] bool wantsTelemetry() const noexcept {
        return !trace_path.empty() || !metrics_path.empty();
    }
};

/// Write `bytes` to `path`, exiting 1 with a "tool: cannot write" line on
/// failure — the shared writeFile every CLI duplicated.
void writeFileOrDie(const std::string& tool, const std::string& path,
                    const std::string& bytes);

} // namespace flh::cli
