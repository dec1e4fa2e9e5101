// The one JSON reader and writer of the repo.
//
// Every exporter (fleet report, sweep, tournament, obs snapshot/trace/
// event log, micro-bench results), the serve wire protocol and the
// obs_report reader go through this module, so escaping, number
// formatting and parsing exist exactly once.
//
// The writer has no configuration because its output is a byte
// contract: object keys keep insertion order, doubles print with
// format_number's %.17g (exact round trip, not shortest), a non-finite
// number prints as `null`, and there is exactly one spacing convention.
//
// kRaw lets a document embed an already-rendered byte-stable JSON text
// (e.g. FleetReport::to_json()) without a parse/re-print trip that
// could perturb its bytes.
//
// The parser accepts RFC 8259 only: numbers must match the RFC grammar
// and have a finite value (no NaN, Infinity, hex, leading '+' or
// overflow to inf), and a document may nest at most kMaxDepth
// containers, so a hostile frame of '[' cannot blow the stack.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace focv {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject, kRaw };

  /// Deepest container nesting parse() accepts.
  static constexpr int kMaxDepth = 48;

  Json() = default;
  static Json null() { return Json(); }
  static Json boolean(bool b);
  static Json number(double v);
  static Json string(std::string s);
  static Json array();
  static Json object();
  /// Pre-rendered JSON embedded verbatim by dump(). The caller promises
  /// `text` is itself valid, byte-stable JSON.
  static Json raw(std::string text);

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const { return type_ == Type::kNumber; }
  [[nodiscard]] bool is_string() const { return type_ == Type::kString; }
  [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }

  [[nodiscard]] bool as_bool() const { return bool_; }
  [[nodiscard]] double as_number() const { return number_; }
  [[nodiscard]] const std::string& as_string() const { return string_; }
  [[nodiscard]] const std::vector<Json>& items() const { return array_; }
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& members() const {
    return object_;
  }

  /// Object member by key; nullptr when absent (or not an object).
  [[nodiscard]] const Json* find(const std::string& key) const;
  /// Convenience typed lookups with fallbacks.
  [[nodiscard]] double number_or(const std::string& key, double fallback) const;
  [[nodiscard]] std::string string_or(const std::string& key, std::string fallback) const;
  [[nodiscard]] bool bool_or(const std::string& key, bool fallback) const;

  /// Append to an array value.
  void push_back(Json v);
  /// Append a member to an object value (insertion order preserved; no
  /// duplicate check — the writer side controls its own keys).
  void set(std::string key, Json v);

  /// Render. Deterministic: same value tree -> same bytes.
  [[nodiscard]] std::string dump() const;
  void dump_to(std::string& out) const;

  /// Parse `text`. Returns false (and fills *error, when given) on
  /// malformed input or trailing garbage.
  static bool parse(const std::string& text, Json& out, std::string* error = nullptr);

  /// `v` printed with `%.*g` at `digits` significant digits. The
  /// default 17 round-trips every double exactly (it is not the
  /// shortest form); the telemetry writers pass 9. Non-finite values
  /// print as printf does ("nan", "inf"), which suits CSV cells and
  /// cache keys but not JSON: JSON writers use dump_number.
  [[nodiscard]] static std::string format_number(double v, int digits = 17);
  /// The JSON text of a number: format_number(v, digits), or `null`
  /// when `v` is not finite. dump() writes number values through this.
  [[nodiscard]] static std::string dump_number(double v, int digits = 17);
  /// JSON string escaping (quotes not included): `"`, `\` and the
  /// control characters below 0x20; every other byte passes through.
  [[nodiscard]] static std::string escape(std::string_view s);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;  ///< kString payload, or kRaw pre-rendered text
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

}  // namespace focv
