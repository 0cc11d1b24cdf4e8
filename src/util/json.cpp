#include "util/json.hpp"

#include <cassert>
#include <cctype>
#include <charconv>
#include <cmath>
#include <stdexcept>

namespace flh {

std::string jsonEscape(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    static const char* hex = "0123456789abcdef";
                    out += "\\u00";
                    out += hex[(c >> 4) & 0xf];
                    out += hex[c & 0xf];
                } else {
                    out += c;
                }
        }
    }
    return out;
}

std::string formatNumber(double v) {
    if (v == 0.0) return "0"; // collapses -0.0 as well
    if (!std::isfinite(v)) return "null";
    char buf[64];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
    assert(ec == std::errc());
    return std::string(buf, end);
}

void JsonWriter::beforeValue() {
    if (pending_key_) {
        pending_key_ = false;
        return;
    }
    if (!has_items_.empty()) {
        if (has_items_.back()) out_ += ',';
        newline();
    }
    if (!has_items_.empty()) has_items_.back() = true;
}

void JsonWriter::newline() {
    out_ += '\n';
    out_.append(2 * has_items_.size(), ' ');
}

void JsonWriter::beginObject() {
    beforeValue();
    out_ += '{';
    has_items_.push_back(false);
}

void JsonWriter::endObject() {
    const bool had = has_items_.back();
    has_items_.pop_back();
    if (had) newline();
    out_ += '}';
}

void JsonWriter::beginArray() {
    beforeValue();
    out_ += '[';
    has_items_.push_back(false);
}

void JsonWriter::endArray() {
    const bool had = has_items_.back();
    has_items_.pop_back();
    if (had) newline();
    out_ += ']';
}

void JsonWriter::key(std::string_view k) {
    if (has_items_.back()) out_ += ',';
    newline();
    has_items_.back() = true;
    out_ += '"';
    out_ += jsonEscape(k);
    out_ += "\": ";
    pending_key_ = true;
}

void JsonWriter::value(std::string_view s) {
    beforeValue();
    out_ += '"';
    out_ += jsonEscape(s);
    out_ += '"';
}

void JsonWriter::value(double v) {
    beforeValue();
    out_ += formatNumber(v);
}

void JsonWriter::value(std::int64_t v) {
    beforeValue();
    out_ += std::to_string(v);
}

void JsonWriter::value(std::uint64_t v) {
    beforeValue();
    out_ += std::to_string(v);
}

void JsonWriter::value(bool v) {
    beforeValue();
    out_ += v ? "true" : "false";
}

void JsonWriter::rawValue(std::string_view json) {
    beforeValue();
    out_ += json;
}

const JsonValue& JsonValue::at(const std::string& k) const {
    const auto it = obj.find(k);
    if (it == obj.end()) throw std::runtime_error("json: missing key: " + k);
    return it->second;
}

namespace {

/// Recursive-descent reader over the subset our writer emits (which is
/// plain JSON, so arbitrary conforming documents parse too). Hardened for
/// untrusted input:
/// nesting depth, string length, and number length are bounded by
/// JsonLimits, strings must be valid UTF-8 with no raw control bytes, and
/// numbers follow the strict JSON grammar through std::from_chars — no
/// locale, no exceptions other than the positioned std::runtime_error.
class JsonReader {
public:
    JsonReader(std::string_view text, const JsonLimits& limits)
        : s_(text), limits_(limits) {}

    JsonValue parseDocument() {
        JsonValue v = parseValue();
        skipWs();
        if (pos_ != s_.size()) fail("trailing bytes after document");
        return v;
    }

private:
    std::string_view s_;
    JsonLimits limits_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0;

    [[noreturn]] void fail(const std::string& why) const {
        // Positioning: byte offset plus 1-based line:column, computed only
        // on the failure path so the happy path never pays for it.
        std::size_t line = 1;
        std::size_t col = 1;
        for (std::size_t i = 0; i < pos_ && i < s_.size(); ++i) {
            if (s_[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        throw std::runtime_error("json parse error at byte " + std::to_string(pos_) +
                                 " (line " + std::to_string(line) + ", col " +
                                 std::to_string(col) + "): " + why);
    }

    /// RAII nesting guard: every container level checks the depth budget.
    struct DepthGuard {
        JsonReader& r;
        explicit DepthGuard(JsonReader& reader) : r(reader) {
            if (++r.depth_ > r.limits_.max_depth)
                r.fail("nesting deeper than " + std::to_string(r.limits_.max_depth));
        }
        ~DepthGuard() { --r.depth_; }
    };
    void skipWs() {
        while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }
    char peek() {
        if (pos_ >= s_.size()) fail("unexpected end");
        return s_[pos_];
    }
    void expect(char c) {
        if (peek() != c) fail(std::string("expected '") + c + "'");
        ++pos_;
    }
    bool consume(char c) {
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    JsonValue parseValue() {
        skipWs();
        const char c = peek();
        if (c == '{') return parseObject();
        if (c == '[') return parseArray();
        if (c == '"') {
            JsonValue v;
            v.kind = JsonValue::Kind::Str;
            v.str = parseString();
            return v;
        }
        if (c == 't' || c == 'f') return parseLiteralBool();
        if (c == 'n') {
            parseLiteral("null");
            return JsonValue{};
        }
        return parseNumber();
    }

    void parseLiteral(std::string_view lit) {
        if (s_.substr(pos_, lit.size()) != lit) fail("bad literal");
        pos_ += lit.size();
    }
    JsonValue parseLiteralBool() {
        JsonValue v;
        v.kind = JsonValue::Kind::Bool;
        if (peek() == 't') {
            parseLiteral("true");
            v.b = true;
        } else {
            parseLiteral("false");
        }
        return v;
    }

    /// Continuation-byte check for the UTF-8 validator below.
    [[nodiscard]] bool continuation(std::size_t i) const noexcept {
        return i < s_.size() && (static_cast<unsigned char>(s_[i]) & 0xc0) == 0x80;
    }

    /// Validate (and copy) one non-ASCII UTF-8 sequence starting at the
    /// current byte. Rejects truncated sequences, bare continuation bytes,
    /// overlong forms' lead bytes (0xc0/0xc1), and anything past U+10FFFF
    /// (lead bytes above 0xf4) — enough to keep a parse-then-rewrite round
    /// trip from echoing malformed bytes into otherwise-valid JSON.
    void consumeUtf8Tail(std::string& out, unsigned char lead) {
        std::size_t extra = 0;
        if (lead >= 0xc2 && lead <= 0xdf) extra = 1;
        else if (lead >= 0xe0 && lead <= 0xef) extra = 2;
        else if (lead >= 0xf0 && lead <= 0xf4) extra = 3;
        else {
            --pos_; // point the error at the offending byte
            fail("invalid UTF-8 byte in string");
        }
        for (std::size_t i = 0; i < extra; ++i) {
            if (!continuation(pos_ + i)) {
                pos_ += i;
                fail("truncated UTF-8 sequence in string");
            }
        }
        out.append(s_.substr(pos_ - 1, extra + 1));
        pos_ += extra;
    }

    std::string parseString() {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= s_.size()) fail("unterminated string");
            const char c = s_[pos_++];
            if (c == '"') break;
            if (out.size() >= limits_.max_string_bytes)
                fail("string longer than " + std::to_string(limits_.max_string_bytes) +
                     " bytes");
            if (c == '\\') {
                if (pos_ >= s_.size()) fail("unterminated escape");
                const char e = s_[pos_++];
                switch (e) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    if (pos_ + 4 > s_.size()) fail("short \\u escape");
                    for (std::size_t i = 0; i < 4; ++i)
                        if (!std::isxdigit(static_cast<unsigned char>(s_[pos_ + i]))) {
                            pos_ += i;
                            fail("non-hex digit in \\u escape");
                        }
                    // Our writer only \u-escapes control bytes; keep raw hex.
                    out += "\\u";
                    out += s_.substr(pos_, 4);
                    pos_ += 4;
                    break;
                }
                default: fail("bad escape");
                }
            } else if (static_cast<unsigned char>(c) < 0x20) {
                --pos_;
                fail("raw control byte in string (must be escaped)");
            } else if (static_cast<unsigned char>(c) < 0x80) {
                out += c;
            } else {
                consumeUtf8Tail(out, static_cast<unsigned char>(c));
            }
        }
        return out;
    }

    JsonValue parseNumber() {
        // Strict JSON grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
        const std::size_t start = pos_;
        consume('-');
        const auto digits = [&]() -> std::size_t {
            std::size_t n = 0;
            while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
                ++pos_;
                ++n;
            }
            return n;
        };
        if (pos_ < s_.size() && s_[pos_] == '0') ++pos_; // no leading zeros
        else if (digits() == 0) fail("bad number");
        if (consume('.') && digits() == 0) fail("bad number: digits required after '.'");
        if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
            if (digits() == 0) fail("bad number: digits required in exponent");
        }
        if (pos_ - start > limits_.max_number_chars)
            fail("number longer than " + std::to_string(limits_.max_number_chars) +
                 " chars");
        JsonValue v;
        v.kind = JsonValue::Kind::Num;
        const auto [p, ec] = std::from_chars(s_.data() + start, s_.data() + pos_, v.num);
        if (ec == std::errc::result_out_of_range)
            fail("number out of double range");
        if (ec != std::errc() || p != s_.data() + pos_) fail("bad number");
        return v;
    }

    JsonValue parseArray() {
        DepthGuard depth(*this);
        expect('[');
        JsonValue v;
        v.kind = JsonValue::Kind::Arr;
        skipWs();
        if (consume(']')) return v;
        while (true) {
            v.arr.push_back(parseValue());
            skipWs();
            if (consume(']')) break;
            expect(',');
        }
        return v;
    }

    JsonValue parseObject() {
        DepthGuard depth(*this);
        expect('{');
        JsonValue v;
        v.kind = JsonValue::Kind::Obj;
        skipWs();
        if (consume('}')) return v;
        while (true) {
            skipWs();
            std::string k = parseString();
            skipWs();
            expect(':');
            v.obj.emplace(std::move(k), parseValue());
            skipWs();
            if (consume('}')) break;
            expect(',');
        }
        return v;
    }
};

} // namespace

JsonValue parseJson(std::string_view text, const JsonLimits& limits) {
    return JsonReader(text, limits).parseDocument();
}

} // namespace flh
