#pragma once
// Minimal recursive-descent JSON parser — just enough to validate the
// Perfetto/Chrome trace exports this repo writes (tools/perfetto_validate,
// tests/obs/test_perfetto.cpp) without pulling a third-party dependency.
//
// Strict where it matters for trace files: rejects trailing garbage,
// unterminated strings/escapes, bad numbers and unbalanced containers.
// Numbers are parsed as double (all trace-event fields fit), object keys
// keep insertion order irrelevant — lookup is by exact name. Containers nest
// at most Parser::kMaxDepth levels, so hostile input cannot exhaust the
// stack of the recursive parser or of the Value destructor.

#include <cctype>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace rtsc::obs::json {

class Value;
using ValuePtr = std::shared_ptr<Value>;

class Value {
public:
    enum class Kind { null, boolean, number, string, array, object };

    Kind kind = Kind::null;
    bool b = false;
    double num = 0;
    std::string str;
    std::vector<ValuePtr> arr;
    std::map<std::string, ValuePtr> obj;

    [[nodiscard]] bool is_object() const noexcept { return kind == Kind::object; }
    [[nodiscard]] bool is_array() const noexcept { return kind == Kind::array; }
    [[nodiscard]] bool is_string() const noexcept { return kind == Kind::string; }
    [[nodiscard]] bool is_number() const noexcept { return kind == Kind::number; }

    /// Object member or nullptr.
    [[nodiscard]] const Value* get(const std::string& key) const {
        if (kind != Kind::object) return nullptr;
        const auto it = obj.find(key);
        return it != obj.end() ? it->second.get() : nullptr;
    }
};

class ParseError : public std::runtime_error {
public:
    ParseError(const std::string& what, std::size_t at)
        : std::runtime_error(what + " at offset " + std::to_string(at)) {}
};

class Parser {
public:
    /// Deepest container nesting accepted; the exports nest fewer than 10
    /// levels.
    static constexpr std::size_t kMaxDepth = 256;

    explicit Parser(std::string_view text) : s_(text) {}

    [[nodiscard]] ValuePtr parse() {
        ValuePtr v = value();
        skip_ws();
        if (pos_ != s_.size()) throw ParseError("trailing garbage", pos_);
        return v;
    }

private:
    void skip_ws() {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                s_[pos_] == '\r'))
            ++pos_;
    }

    [[nodiscard]] char peek() {
        if (pos_ >= s_.size()) throw ParseError("unexpected end of input", pos_);
        return s_[pos_];
    }

    void expect(char c) {
        if (peek() != c)
            throw ParseError(std::string("expected '") + c + "'", pos_);
        ++pos_;
    }

    [[nodiscard]] ValuePtr value() {
        skip_ws();
        switch (peek()) {
            case '{':
            case '[': {
                if (depth_ == kMaxDepth)
                    throw ParseError("nesting deeper than " +
                                         std::to_string(kMaxDepth) + " levels",
                                     pos_);
                ++depth_;
                ValuePtr v = s_[pos_] == '{' ? object() : array();
                --depth_;
                return v;
            }
            case '"': return string_value();
            case 't':
            case 'f': return boolean();
            case 'n': return null_value();
            default: return number();
        }
    }

    [[nodiscard]] ValuePtr object() {
        auto v = std::make_shared<Value>();
        v->kind = Value::Kind::object;
        expect('{');
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        for (;;) {
            skip_ws();
            std::string key = raw_string();
            skip_ws();
            expect(':');
            v->obj[std::move(key)] = value();
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    [[nodiscard]] ValuePtr array() {
        auto v = std::make_shared<Value>();
        v->kind = Value::Kind::array;
        expect('[');
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        for (;;) {
            v->arr.push_back(value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    [[nodiscard]] std::string raw_string() {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= s_.size()) throw ParseError("unterminated string", pos_);
            const char c = s_[pos_++];
            if (c == '"') return out;
            if (static_cast<unsigned char>(c) < 0x20)
                throw ParseError("raw control character in string", pos_ - 1);
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= s_.size()) throw ParseError("unterminated escape", pos_);
            const char e = s_[pos_++];
            switch (e) {
                case '"': out.push_back('"'); break;
                case '\\': out.push_back('\\'); break;
                case '/': out.push_back('/'); break;
                case 'b': out.push_back('\b'); break;
                case 'f': out.push_back('\f'); break;
                case 'n': out.push_back('\n'); break;
                case 'r': out.push_back('\r'); break;
                case 't': out.push_back('\t'); break;
                case 'u': {
                    if (pos_ + 4 > s_.size())
                        throw ParseError("truncated \\u escape", pos_);
                    for (int i = 0; i < 4; ++i) {
                        if (std::isxdigit(
                                static_cast<unsigned char>(s_[pos_])) == 0)
                            throw ParseError("bad \\u escape", pos_);
                        ++pos_;
                    }
                    out.push_back('?'); // validation only: code point dropped
                    break;
                }
                default: throw ParseError("bad escape", pos_ - 1);
            }
        }
    }

    [[nodiscard]] ValuePtr string_value() {
        auto v = std::make_shared<Value>();
        v->kind = Value::Kind::string;
        v->str = raw_string();
        return v;
    }

    [[nodiscard]] ValuePtr boolean() {
        auto v = std::make_shared<Value>();
        v->kind = Value::Kind::boolean;
        if (s_.compare(pos_, 4, "true") == 0) {
            v->b = true;
            pos_ += 4;
        } else if (s_.compare(pos_, 5, "false") == 0) {
            v->b = false;
            pos_ += 5;
        } else {
            throw ParseError("bad literal", pos_);
        }
        return v;
    }

    [[nodiscard]] ValuePtr null_value() {
        if (s_.compare(pos_, 4, "null") != 0)
            throw ParseError("bad literal", pos_);
        pos_ += 4;
        auto v = std::make_shared<Value>();
        v->kind = Value::Kind::null;
        return v;
    }

    [[nodiscard]] ValuePtr number() {
        const std::size_t start = pos_;
        if (peek() == '-') ++pos_;
        auto digits = [&] {
            std::size_t n = 0;
            while (pos_ < s_.size() &&
                   std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0) {
                ++pos_;
                ++n;
            }
            return n;
        };
        if (digits() == 0) throw ParseError("bad number", start);
        if (pos_ < s_.size() && s_[pos_] == '.') {
            ++pos_;
            if (digits() == 0) throw ParseError("bad fraction", start);
        }
        if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
            if (digits() == 0) throw ParseError("bad exponent", start);
        }
        auto v = std::make_shared<Value>();
        v->kind = Value::Kind::number;
        v->num = std::strtod(std::string(s_.substr(start, pos_ - start)).c_str(),
                             nullptr);
        return v;
    }

    std::string_view s_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0; ///< containers open around the current value
};

/// Parse or throw ParseError.
[[nodiscard]] inline ValuePtr parse(std::string_view text) {
    return Parser(text).parse();
}

} // namespace rtsc::obs::json
