#include "json/json.hpp"

#include <charconv>
#include <system_error>

namespace xoridx::json {

namespace {

using api::Result;
using api::Status;
using api::StatusCode;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> run() {
    skip_ws();
    Value value;
    if (Status s = parse_value(value, 0); !s.ok()) return s;
    skip_ws();
    if (pos_ != text_.size())
      return fail("trailing characters after the JSON value");
    return value;
  }

 private:
  static constexpr int max_depth = 32;

  Status fail(const std::string& what) const {
    return Status(StatusCode::parse_error,
                  what + " at byte " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  [[nodiscard]] bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status parse_value(Value& out, int depth) {
    if (depth > max_depth) return fail("nesting too deep");
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return parse_object(out, depth);
      case '[':
        return parse_array(out, depth);
      case '"': {
        std::string s;
        if (Status st = parse_string(s); !st.ok()) return st;
        out = Value(std::move(s));
        return {};
      }
      case 't':
        if (text_.substr(pos_, 4) == "true") {
          pos_ += 4;
          out = Value(true);
          return {};
        }
        return fail("invalid literal");
      case 'f':
        if (text_.substr(pos_, 5) == "false") {
          pos_ += 5;
          out = Value(false);
          return {};
        }
        return fail("invalid literal");
      case 'n':
        if (text_.substr(pos_, 4) == "null") {
          pos_ += 4;
          out = Value();
          return {};
        }
        return fail("invalid literal");
      default:
        return parse_number(out);
    }
  }

  Status parse_object(Value& out, int depth) {
    ++pos_;  // '{'
    out = Value::object();
    skip_ws();
    if (eat('}')) return {};
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"')
        return fail("expected an object key");
      std::string key;
      if (Status st = parse_string(key); !st.ok()) return st;
      if (out.find(key) != nullptr)
        return fail("duplicate object key \"" + key + "\"");
      skip_ws();
      if (!eat(':')) return fail("expected ':' after object key");
      skip_ws();
      Value value;
      if (Status st = parse_value(value, depth + 1); !st.ok()) return st;
      out.set(std::move(key), std::move(value));
      skip_ws();
      if (eat('}')) return {};
      if (!eat(',')) return fail("expected ',' or '}' in object");
    }
  }

  Status parse_array(Value& out, int depth) {
    ++pos_;  // '['
    out = Value::array();
    skip_ws();
    if (eat(']')) return {};
    while (true) {
      skip_ws();
      Value value;
      if (Status st = parse_value(value, depth + 1); !st.ok()) return st;
      out.push_back(std::move(value));
      skip_ws();
      if (eat(']')) return {};
      if (!eat(',')) return fail("expected ',' or ']' in array");
    }
  }

  Status parse_string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (true) {
      if (pos_ >= text_.size()) return fail("unterminated string");
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return {};
      }
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("raw control character in string");
      if (c != '\\') {
        out += c;
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) return fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          if (Status st = parse_hex4(code); !st.ok()) return st;
          // Surrogate pair → one code point.
          if (code >= 0xD800 && code <= 0xDBFF) {
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u')
              return fail("unpaired UTF-16 surrogate");
            pos_ += 2;
            unsigned low = 0;
            if (Status st = parse_hex4(low); !st.ok()) return st;
            if (low < 0xDC00 || low > 0xDFFF)
              return fail("invalid low surrogate");
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return fail("unpaired UTF-16 surrogate");
          }
          append_utf8(out, code);
          break;
        }
        default:
          return fail("invalid escape");
      }
    }
  }

  Status parse_hex4(unsigned& out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      out <<= 4;
      if (c >= '0' && c <= '9')
        out |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f')
        out |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        out |= static_cast<unsigned>(c - 'A' + 10);
      else
        return fail("invalid hex digit in \\u escape");
    }
    return {};
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  [[nodiscard]] bool at_digit() const {
    return pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
  }

  /// RFC 8259: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  Status parse_number(Value& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (!at_digit()) return fail("invalid number");
    if (text_[pos_++] == '0' && at_digit())
      return fail("leading zero in number");
    while (at_digit()) ++pos_;
    bool integral = true;
    if (eat('.')) {
      integral = false;
      if (!at_digit()) return fail("expected a digit after '.'");
      while (at_digit()) ++pos_;
    }
    if (eat('e') || eat('E')) {
      integral = false;
      if (!eat('+')) (void)eat('-');
      if (!at_digit()) return fail("expected a digit in the exponent");
      while (at_digit()) ++pos_;
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    std::from_chars_result parsed;
    if (integral) {
      std::int64_t v = 0;
      parsed = std::from_chars(first, last, v);
      out = Value(v);
    } else {
      double v = 0.0;
      parsed = std::from_chars(first, last, v);
      out = Value(v);
    }
    if (parsed.ec != std::errc() || parsed.ptr != last) {
      pos_ = start;
      return fail("number out of range");
    }
    return {};
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void append_quoted(std::string& out, std::string_view s) {
  static constexpr char hex[] = "0123456789abcdef";
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += hex[(c >> 4) & 0xf];
          out += hex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

const Value* Value::find(std::string_view key) const {
  for (const Member& m : members())
    if (m.first == key) return &m.second;
  return nullptr;
}

// Out of line: inlined into callers, gcc 12 reports the move of a
// variant holding a vector as a maybe-uninitialized read.
void Value::push_back(Value v) {
  std::get<Items>(data_).push_back(std::move(v));
}

void Value::set(std::string key, Value v) {
  std::get<Members>(data_).emplace_back(std::move(key), std::move(v));
}

std::string quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  append_quoted(out, s);
  return out;
}

std::string Value::serialize() const {
  std::string out;
  serialize_to(out);
  return out;
}

void Value::serialize_to(std::string& out) const {
  switch (kind()) {
    case Kind::null:
      out += "null";
      return;
    case Kind::boolean:
      out += std::get<bool>(data_) ? "true" : "false";
      return;
    case Kind::integer:
      out += std::to_string(std::get<std::int64_t>(data_));
      return;
    case Kind::number: {
      // Shortest round-trippable form; never NaN/Inf (rejected on parse,
      // never produced by the protocol builders).
      char buf[32];
      out.append(buf, std::to_chars(buf, buf + sizeof(buf),
                                    std::get<double>(data_))
                          .ptr);
      return;
    }
    case Kind::string:
      append_quoted(out, std::get<std::string>(data_));
      return;
    case Kind::array: {
      const Items& items = std::get<Items>(data_);
      out += '[';
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (i != 0) out += ',';
        items[i].serialize_to(out);
      }
      out += ']';
      return;
    }
    case Kind::object: {
      const Members& members = std::get<Members>(data_);
      out += '{';
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (i != 0) out += ',';
        append_quoted(out, members[i].first);
        out += ':';
        members[i].second.serialize_to(out);
      }
      out += '}';
      return;
    }
  }
}

api::Result<Value> parse(std::string_view text) {
  return Parser(text).run();
}

}  // namespace xoridx::json
