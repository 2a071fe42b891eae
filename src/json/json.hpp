// The repo's one JSON codec: a strict RFC 8259 parser, a serializer and
// the string quoter every JSON writer uses.
//
// The repo deliberately has no third-party dependencies, so this is a
// small value type covering objects, arrays, strings (with \uXXXX
// escapes parsed to UTF-8), integers, doubles, booleans and null. It
// carries the serving daemon's NDJSON protocol and reads Chrome
// trace-event documents for the trace merger. Objects preserve
// insertion order, so serialized output is deterministic and
// diff-friendly; duplicate keys are a parse error. Parsing follows the
// Status model: bad input yields an attributable parse_error naming the
// byte offset, never an exception.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "api/status.hpp"

namespace xoridx::json {

class Value {
 public:
  enum class Kind { null, boolean, integer, number, string, array, object };

  using Member = std::pair<std::string, Value>;

  Value() = default;  ///< null
  Value(bool b) : data_(std::in_place_type<bool>, b) {}  // NOLINT
  Value(std::int64_t i)                                   // NOLINT
      : data_(std::in_place_type<std::int64_t>, i) {}
  Value(std::uint64_t u)  // NOLINT
      : Value(static_cast<std::int64_t>(u)) {}
  Value(int i) : Value(static_cast<std::int64_t>(i)) {}      // NOLINT
  Value(double d) : data_(std::in_place_type<double>, d) {}  // NOLINT
  Value(std::string s)                                       // NOLINT
      : data_(std::in_place_type<std::string>, std::move(s)) {}
  Value(const char* s) : Value(std::string(s)) {}  // NOLINT

  [[nodiscard]] static Value array() {
    Value v;
    v.data_.emplace<Items>();
    return v;
  }
  [[nodiscard]] static Value object() {
    Value v;
    v.data_.emplace<Members>();
    return v;
  }

  [[nodiscard]] Kind kind() const noexcept {
    return static_cast<Kind>(data_.index());
  }
  [[nodiscard]] bool is_null() const noexcept { return kind() == Kind::null; }
  [[nodiscard]] bool is_object() const noexcept {
    return kind() == Kind::object;
  }
  [[nodiscard]] bool is_array() const noexcept {
    return kind() == Kind::array;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind() == Kind::string;
  }
  [[nodiscard]] bool is_bool() const noexcept {
    return kind() == Kind::boolean;
  }
  /// Integers and doubles both count as numbers.
  [[nodiscard]] bool is_number() const noexcept {
    return kind() == Kind::integer || kind() == Kind::number;
  }

  // Accessors of the wrong kind read as false / 0 / empty.
  [[nodiscard]] bool as_bool() const noexcept { return get<bool>(); }
  [[nodiscard]] std::int64_t as_int() const noexcept {
    return kind() == Kind::number ? static_cast<std::int64_t>(get<double>())
                                  : get<std::int64_t>();
  }
  [[nodiscard]] double as_double() const noexcept {
    return kind() == Kind::integer ? static_cast<double>(get<std::int64_t>())
                                   : get<double>();
  }
  [[nodiscard]] const std::string& as_string() const noexcept {
    return get<std::string>();
  }
  [[nodiscard]] const std::vector<Value>& items() const noexcept {
    return get<Items>();
  }
  [[nodiscard]] const std::vector<Member>& members() const noexcept {
    return get<Members>();
  }

  /// Object member by key, or nullptr when absent / not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;

  /// Append an array item; only valid on an array.
  void push_back(Value v);
  /// Append an object member (insertion order is serialization order);
  /// only valid on an object.
  void set(std::string key, Value v);

  /// Compact single-line serialization (never contains a raw newline,
  /// so every value is a valid NDJSON frame). Doubles are written in
  /// their shortest round-trippable form.
  [[nodiscard]] std::string serialize() const;

 private:
  using Items = std::vector<Value>;
  using Members = std::vector<Member>;

  /// The held T, or a default T when this value is of another kind.
  template <typename T>
  [[nodiscard]] const T& get() const noexcept {
    static const T fallback{};
    const T* held = std::get_if<T>(&data_);
    return held != nullptr ? *held : fallback;
  }

  void serialize_to(std::string& out) const;

  // Alternatives in Kind order, so index() is the kind.
  std::variant<std::monostate, bool, std::int64_t, double, std::string,
               Items, Members>
      data_;
};

/// Parse one complete JSON document; trailing non-whitespace (or any
/// other deviation) is a parse_error naming the byte offset.
[[nodiscard]] api::Result<Value> parse(std::string_view text);

/// `s` as a quoted JSON string literal: `"` and `\` backslash-escaped,
/// \n \r \t by name, other bytes below 0x20 as \u00XX, everything else
/// (0x7f and UTF-8 included) as is. parse(quote(s)) == s for any bytes.
[[nodiscard]] std::string quote(std::string_view s);

}  // namespace xoridx::json
