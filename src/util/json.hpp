// Minimal deterministic JSON writer for machine-readable reports.
//
// Every run report and benchmark export in this repository must be
// byte-identical for identical inputs (the flow engine's cache and CI
// compare them with cmp), so this writer makes the formatting rules
// explicit: two-space indentation, keys emitted in caller order, doubles
// printed via formatNumber (shortest round-trip-exact form), no locale
// dependence, trailing newline left to the caller.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace flh {

/// Escape a string for inclusion in a JSON document (adds no quotes).
[[nodiscard]] std::string jsonEscape(std::string_view s);

/// Deterministic textual form of a double: round-trip exact, no locale,
/// "0" for zero, integral values without a trailing ".0".
[[nodiscard]] std::string formatNumber(double v);

/// Streaming JSON writer with explicit structure calls.
///
///   JsonWriter w;
///   w.beginObject();
///   w.key("total"); w.value(3);
///   w.key("stages"); w.beginArray(); ... w.endArray();
///   w.endObject();
///   std::string doc = w.str();
class JsonWriter {
public:
    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    void key(std::string_view k);

    void value(std::string_view s);
    void value(const char* s) { value(std::string_view(s)); }
    void value(double v);
    void value(std::int64_t v);
    void value(std::uint64_t v);
    void value(int v) { value(static_cast<std::int64_t>(v)); }
    void value(bool v);

    /// Shorthand for key(k); value(v).
    template <typename T> void kv(std::string_view k, const T& v) {
        key(k);
        value(v);
    }

    /// Splice pre-rendered JSON as one value at the current position. The
    /// caller guarantees `json` is a complete, valid JSON value; it is
    /// inserted verbatim (its own indentation intact), which keeps nested
    /// legacy payloads byte-stable inside envelope documents.
    void rawValue(std::string_view json);

    [[nodiscard]] const std::string& str() const noexcept { return out_; }

private:
    void beforeValue();
    void newline();

    std::string out_;
    std::vector<bool> has_items_; ///< per open scope: an item was emitted
    bool pending_key_ = false;
};

/// Shared report convention: a result struct that is serialized anywhere
/// (CLI reports, bench exports, telemetry metrics) exposes
/// `void writeJson(JsonWriter&) const`, emitting itself as exactly one
/// JSON value into the writer's current position. DftEvaluation,
/// FaultSimResult, and the flow StageRecord all follow it, so every
/// emitter composes them instead of hand-rolling fields.
template <typename T>
concept JsonWritable = requires(const T& t, JsonWriter& w) {
    { t.writeJson(w) };
};

/// Wrap one JsonWritable value as a standalone document (trailing newline
/// included, matching every report file in the repo).
template <JsonWritable T> [[nodiscard]] std::string toJsonDocument(const T& v) {
    JsonWriter w;
    v.writeJson(w);
    return w.str() + "\n";
}

/// Parsed JSON value — the read side of the writer above. Deliberately
/// small: enough to load our own exports back (bench envelopes, telemetry
/// traces, diff reports) without an external dependency. Numbers are
/// doubles; \u escapes beyond control bytes are kept as raw "\uXXXX" text
/// (our writer only emits them for control characters).
struct JsonValue {
    enum class Kind { Null, Bool, Num, Str, Arr, Obj } kind = Kind::Null;
    bool b = false;
    double num = 0.0;
    std::string str;
    std::vector<JsonValue> arr;
    std::map<std::string, JsonValue> obj;

    /// Object member access; throws std::runtime_error on a missing key.
    [[nodiscard]] const JsonValue& at(const std::string& k) const;
    [[nodiscard]] bool has(const std::string& k) const { return obj.count(k) > 0; }
};

/// Resource bounds for parseJson. The defaults are generous enough for
/// every export this repository writes (bench envelopes, traces,
/// time-series); callers parsing untrusted input can pass tighter limits.
/// A violated limit throws std::runtime_error with the
/// same byte/line/column positioning as a syntax error.
struct JsonLimits {
    std::size_t max_depth = 256;             ///< nesting depth (arrays + objects)
    std::size_t max_string_bytes = 1u << 26; ///< decoded bytes per string (64 MiB)
    std::size_t max_number_chars = 128;      ///< source chars per number token
};

/// Parse one JSON document (trailing whitespace allowed, nothing else).
/// Throws std::runtime_error naming the byte offset plus line:column on
/// malformed input, invalid UTF-8, raw control bytes inside strings, or a
/// violated limit. Safe on untrusted input: nesting depth is bounded (no
/// unbounded recursion) and numbers parse without locale or exceptions.
[[nodiscard]] JsonValue parseJson(std::string_view text, const JsonLimits& limits = {});

} // namespace flh
