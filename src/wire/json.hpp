// The wire API's JSON lane: the same messages as wire/messages.hpp in a
// human-readable encoding, plus the minimal JSON value/parser/writer it is
// built on (dependency-free, like everything else in src/wire). The JSON key
// of every field sits next to its binary tag in the field tables of
// wire/schema.hpp, which both lanes walk; a new field is one row there.
//
// Fidelity rules:
//   * Doubles print with %.17g — enough digits that every finite IEEE-754
//     double round-trips exactly through the text. Non-finite values (not
//     representable in JSON numbers) travel as the strings "nan", "inf",
//     "-inf"; they round-trip in value but NaN *payload bits* do not — the
//     binary lane (wire/codec.hpp) is the bit-exact one.
//   * 64-bit integers print as plain decimal integers and parse back
//     exactly: the parser keeps the exact integer value alongside the
//     double interpretation, so u64/i64 fields never lose precision to a
//     double round trip.
//   * Unknown object keys are ignored on decode (the same version tolerance
//     as unknown binary tags); malformed text is a typed kParseError.
//
// JSON is what the HTTP server speaks where humans look: SSE progress
// events, /stats, error bodies. Requests and reports default to the binary
// lane but both directions support JSON for curl-ability.
#pragma once

#include "common/status.hpp"
#include "wire/messages.hpp"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace qvg::wire {

class JsonParser;

/// A parsed JSON value (tree-owning).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  [[nodiscard]] static JsonValue null() { return JsonValue(); }
  [[nodiscard]] static JsonValue boolean(bool v);
  [[nodiscard]] static JsonValue number(double v);
  /// Exact 64-bit integers (kept alongside the double interpretation).
  [[nodiscard]] static JsonValue integer(std::int64_t v);
  [[nodiscard]] static JsonValue unsigned_integer(std::uint64_t v);
  [[nodiscard]] static JsonValue string(std::string v);
  [[nodiscard]] static JsonValue array();
  [[nodiscard]] static JsonValue object();

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }

  [[nodiscard]] bool as_bool() const noexcept { return bool_; }
  [[nodiscard]] double as_double() const noexcept { return number_; }
  /// The exact integer readings (valid when the text was an integer in
  /// range; exact_i64/exact_u64 report which).
  [[nodiscard]] bool exact_i64() const noexcept { return has_i64_; }
  [[nodiscard]] bool exact_u64() const noexcept { return has_u64_; }
  [[nodiscard]] std::int64_t as_i64() const noexcept { return i64_; }
  [[nodiscard]] std::uint64_t as_u64() const noexcept { return u64_; }
  [[nodiscard]] const std::string& as_string() const noexcept { return str_; }
  [[nodiscard]] const std::vector<JsonValue>& items() const noexcept {
    return items_;
  }
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>& members()
      const noexcept {
    return members_;
  }

  /// Object member by key; nullptr when absent (or not an object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  // Builders.
  void push_back(JsonValue v) { items_.push_back(std::move(v)); }
  void set(std::string key, JsonValue v) {
    members_.emplace_back(std::move(key), std::move(v));
  }

  /// Serialize (compact, no insignificant whitespace).
  [[nodiscard]] std::string dump() const;

 private:
  // The parser sets the double reading of integer text itself, so "-0"
  // keeps its sign for double fields while reading as 0 for integer fields.
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  bool has_i64_ = false, has_u64_ = false;
  std::int64_t i64_ = 0;
  std::uint64_t u64_ = 0;
  std::string str_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parse one JSON document (must consume the whole input, modulo trailing
/// whitespace). Malformed input is a typed kParseError, stage "json".
[[nodiscard]] Result<JsonValue> parse_json(std::string_view text);

// Message lane. Each to_json emits the version alongside the payload; each
// from_json rejects a version it does not speak, ignores unknown keys, and
// returns typed errors on malformed values.
[[nodiscard]] std::string to_json(const WireRequest& request);
[[nodiscard]] Result<WireRequest> request_from_json(std::string_view text);

[[nodiscard]] std::string to_json(const WireReport& report);
[[nodiscard]] Result<WireReport> report_from_json(std::string_view text);

[[nodiscard]] std::string to_json(const ProgressEvent& event);
[[nodiscard]] Result<ProgressEvent> progress_from_json(std::string_view text);

[[nodiscard]] std::string status_to_json(const Status& status);
/// Out-param flavour (Result<Status> would be ambiguous): the return value
/// is the *parse* outcome, `out` the decoded status.
[[nodiscard]] Status status_from_json(std::string_view text, Status& out);

[[nodiscard]] std::string to_json(const FaultStats& stats);
[[nodiscard]] Result<FaultStats> fault_stats_from_json(std::string_view text);

}  // namespace qvg::wire
