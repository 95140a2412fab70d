#include "wire/json.hpp"

#include "wire/schema.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cerrno>
#include <cstring>

namespace qvg::wire {

namespace {

Status json_error(std::string detail) {
  return Status::failure(ErrorCode::kParseError, "json", std::move(detail));
}

// ------------------------------------------------------------- writer -----

void append_escaped(std::string& out, std::string_view s) {
  out.push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  out.push_back('"');
}

void append_value(std::string& out, const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull: out += "null"; break;
    case JsonValue::Kind::kBool: out += v.as_bool() ? "true" : "false"; break;
    case JsonValue::Kind::kNumber: {
      if (v.exact_u64() && !v.exact_i64()) {
        out += std::to_string(v.as_u64());
      } else if (v.exact_i64()) {
        out += std::to_string(v.as_i64());
      } else {
        char buf[32];
        // %.17g: every finite double round-trips exactly through the text.
        std::snprintf(buf, sizeof buf, "%.17g", v.as_double());
        out += buf;
      }
      break;
    }
    case JsonValue::Kind::kString: append_escaped(out, v.as_string()); break;
    case JsonValue::Kind::kArray: {
      out.push_back('[');
      bool first = true;
      for (const JsonValue& item : v.items()) {
        if (!first) out.push_back(',');
        first = false;
        append_value(out, item);
      }
      out.push_back(']');
      break;
    }
    case JsonValue::Kind::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, member] : v.members()) {
        if (!first) out.push_back(',');
        first = false;
        append_escaped(out, key);
        out.push_back(':');
        append_value(out, member);
      }
      out.push_back('}');
      break;
    }
  }
}

// ------------------------------------------------------------- parser -----

/// Recursive-descent parser over a borrowed string_view. Depth-limited so a
/// deep-nesting bomb cannot blow the stack.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> parse() {
    Result<JsonValue> value = parse_value(0);
    if (!value.ok()) return value;
    skip_ws();
    if (pos_ != text_.size())
      return json_error("trailing content at offset " + std::to_string(pos_));
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  [[nodiscard]] bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  [[nodiscard]] bool consume_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Result<JsonValue> parse_value(int depth) {
    if (depth > kMaxDepth) return json_error("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return json_error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return parse_object(depth);
    if (c == '[') return parse_array(depth);
    if (c == '"') {
      Result<std::string> s = parse_string();
      if (!s.ok()) return s.status();
      return JsonValue::string(std::move(s).value());
    }
    if (consume_word("null")) return JsonValue::null();
    if (consume_word("true")) return JsonValue::boolean(true);
    if (consume_word("false")) return JsonValue::boolean(false);
    return parse_number();
  }

  Result<JsonValue> parse_object(int depth) {
    ++pos_;  // '{'
    JsonValue obj = JsonValue::object();
    skip_ws();
    if (consume('}')) return obj;
    for (;;) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"')
        return json_error("expected object key at offset " +
                          std::to_string(pos_));
      Result<std::string> key = parse_string();
      if (!key.ok()) return key.status();
      skip_ws();
      if (!consume(':'))
        return json_error("expected ':' at offset " + std::to_string(pos_));
      Result<JsonValue> value = parse_value(depth + 1);
      if (!value.ok()) return value;
      obj.set(std::move(key).value(), std::move(value).value());
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return obj;
      return json_error("expected ',' or '}' at offset " +
                        std::to_string(pos_));
    }
  }

  Result<JsonValue> parse_array(int depth) {
    ++pos_;  // '['
    JsonValue arr = JsonValue::array();
    skip_ws();
    if (consume(']')) return arr;
    for (;;) {
      Result<JsonValue> value = parse_value(depth + 1);
      if (!value.ok()) return value;
      arr.push_back(std::move(value).value());
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return arr;
      return json_error("expected ',' or ']' at offset " +
                        std::to_string(pos_));
    }
  }

  Result<std::string> parse_string() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) break;
        const char esc = text_[pos_ + 1];
        pos_ += 2;
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size())
              return json_error("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_ + static_cast<std::size_t>(i)];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                code |= static_cast<unsigned>(h - 'A' + 10);
              else
                return json_error("bad \\u escape digit");
            }
            pos_ += 4;
            // UTF-8 encode the code point (BMP only; surrogate pairs are
            // passed through as-is — the wire strings are ASCII in practice).
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xc0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
            } else {
              out.push_back(static_cast<char>(0xe0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
            }
            break;
          }
          default: return json_error("unknown escape character");
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20)
        return json_error("raw control character in string");
      out.push_back(c);
      ++pos_;
    }
    return json_error("unterminated string");
  }

  Result<JsonValue> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool integral = true;
    bool any_digit = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        any_digit = true;
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (!any_digit)
      return json_error("expected a value at offset " + std::to_string(start));
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    errno = 0;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size())
      return json_error("malformed number '" + token + "'");
    if (!integral) return JsonValue::number(d);
    // Integral text: keep the exact 64-bit reading(s) alongside the double.
    if (token[0] == '-') {
      errno = 0;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == ERANGE) return JsonValue::number(d);
      return JsonValue::integer(v);
    }
    errno = 0;
    const unsigned long long v = std::strtoull(token.c_str(), &end, 10);
    if (errno == ERANGE) return JsonValue::number(d);
    return JsonValue::unsigned_integer(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// ------------------------------------------------------------- walker -----

// The JSON walker over the tables of wire/schema.hpp: to_value()/
// from_value() move one value by its C++ type, add_fields()/read_fields()
// one message.

using schema::Message;
using schema::Proxied;

template <Message T>
void add_fields(JsonValue& obj, const T& message);
template <Message T>
Status read_fields(const JsonValue& obj, T& message);

template <typename V>
JsonValue to_value(const V& value) {
  if constexpr (std::is_same_v<V, double>) {
    // Non-finite values travel as marker strings (JSON has no Inf/NaN).
    if (std::isnan(value)) return JsonValue::string("nan");
    if (std::isinf(value)) return JsonValue::string(value > 0 ? "inf" : "-inf");
    return JsonValue::number(value);
  } else if constexpr (std::is_same_v<V, bool>) {
    return JsonValue::boolean(value);
  } else if constexpr (std::is_same_v<V, std::string>) {
    return JsonValue::string(value);
  } else if constexpr (std::is_same_v<V, std::vector<double>>) {
    JsonValue array = JsonValue::array();
    for (double v : value) array.push_back(to_value(v));
    return array;
  } else if constexpr (Message<V>) {
    JsonValue obj = JsonValue::object();
    add_fields(obj, value);
    return obj;
  } else if constexpr (std::is_signed_v<V>) {
    return JsonValue::integer(value);
  } else {
    return JsonValue::unsigned_integer(value);
  }
}

template <typename V>
Status from_value(const JsonValue& v, std::string_view key, V& out) {
  using Kind = JsonValue::Kind;
  const auto is_not = [&](const char* what) {
    return json_error("key '" + std::string(key) + "' is not " + what);
  };
  if constexpr (std::is_same_v<V, double>) {
    const std::string_view marker =
        v.kind() == Kind::kString ? std::string_view(v.as_string()) : "";
    if (v.kind() == Kind::kNumber) out = v.as_double();
    else if (marker == "nan") out = std::nan("");
    else if (marker == "inf") out = HUGE_VAL;
    else if (marker == "-inf") out = -HUGE_VAL;
    else return is_not("a number");
  } else if constexpr (std::is_same_v<V, bool>) {
    if (v.kind() != Kind::kBool) return is_not("a boolean");
    out = v.as_bool();
  } else if constexpr (std::is_same_v<V, std::string>) {
    if (v.kind() != Kind::kString) return is_not("a string");
    out = v.as_string();
  } else if constexpr (std::is_same_v<V, std::vector<double>>) {
    if (v.kind() != Kind::kArray) return is_not("an array");
    out.assign(v.items().size(), 0.0);
    for (std::size_t i = 0; i < out.size(); ++i) {
      Status s = from_value(v.items()[i], key, out[i]);
      if (!s.ok()) return s;
    }
  } else if constexpr (Message<V>) {
    if (v.kind() != Kind::kObject) return is_not("an object");
    return read_fields(v, out);
  } else if constexpr (std::is_signed_v<V>) {
    if (v.kind() != Kind::kNumber || !v.exact_i64() ||
        !std::in_range<V>(v.as_i64()))
      return is_not("an integer in range");
    out = static_cast<V>(v.as_i64());
  } else {
    if (v.kind() != Kind::kNumber || !v.exact_u64())
      return is_not("an unsigned integer");
    out = static_cast<V>(v.as_u64());
  }
  return Status();
}

template <typename V>
Status from_value(const JsonValue& v, std::string_view key,
                  std::optional<V>& out) {
  return from_value(v, key, out.emplace());
}

template <Message T>
void add_fields(JsonValue& obj, const T& message) {
  if constexpr (Proxied<T>) {
    add_fields(obj, schema::fields_of(message));
  } else {
    schema::for_each_row<T>([&](const auto& row, std::size_t) {
      if (!row.when(message)) return;
      const auto& value = std::invoke(row.get, message);
      if constexpr (schema::kNamed<decltype(row)>) {
        // An out-of-range value travels as its number, which no decoder
        // accepts, never as another value's name.
        const auto raw = static_cast<std::uint64_t>(value);
        obj.set(std::string(row.key),
                raw < row.names.size()
                    ? JsonValue::string(std::string(row.names[raw]))
                    : JsonValue::unsigned_integer(raw));
      } else if constexpr (schema::kIsOptional<
                               std::remove_cvref_t<decltype(value)>>) {
        if (value.has_value()) obj.set(std::string(row.key), to_value(*value));
      } else {
        obj.set(std::string(row.key), to_value(value));
      }
    });
  }
}

template <Message T>
Status read_fields(const JsonValue& obj, T& message) {
  if constexpr (Proxied<T>) {
    return schema::through_proxy(message, json_error, [&](auto& proxy) {
      return read_fields(obj, proxy);
    });
  } else {
    Status s;
    std::uint64_t seen = 0;
    schema::for_each_row<T>([&](const auto& row, std::size_t i) {
      const JsonValue* v = s.ok() ? obj.find(row.key) : nullptr;
      if (v == nullptr) return;  // absent: the field keeps its default
      seen |= std::uint64_t{1} << i;
      auto& value = std::invoke(row.get, message);
      if constexpr (schema::kNamed<decltype(row)>) {
        std::string name;
        s = from_value(*v, row.key, name);
        const auto index = static_cast<std::size_t>(
            std::find(row.names.begin(), row.names.end(), name) -
            row.names.begin());
        if (s.ok() && index == row.names.size())
          s = json_error("unknown " + std::string(row.key) + " '" + name +
                         "'");
        if (s.ok())
          value = static_cast<std::remove_cvref_t<decltype(value)>>(index);
      } else {
        s = from_value(*v, row.key, value);
      }
    });
    return s.ok() ? schema::check_required(message, seen, json_error) : s;
  }
}

/// Every top-level document carries {"v": kWireVersion}; a reader rejects a
/// version it does not speak (same contract as the binary envelope).
Status check_version(const JsonValue& obj) {
  if (obj.kind() != JsonValue::Kind::kObject)
    return json_error("document is not an object");
  const JsonValue* v = obj.find("v");
  if (v == nullptr) return json_error("document has no version key 'v'");
  if (v->kind() != JsonValue::Kind::kNumber || !v->exact_u64() ||
      v->as_u64() != kWireVersion)
    return json_error("unsupported document version (this build speaks " +
                      std::to_string(kWireVersion) + ")");
  return Status();
}

/// A top-level document: "v" first, or last where the message has always
/// carried it last.
template <Message T>
std::string dump_message(const T& message, bool version_first) {
  JsonValue obj = JsonValue::object();
  if (version_first) obj.set("v", JsonValue::unsigned_integer(kWireVersion));
  add_fields(obj, message);
  if (!version_first) obj.set("v", JsonValue::unsigned_integer(kWireVersion));
  return obj.dump();
}

/// Parses and checks the version, then decodes into `out`.
template <Message T>
Status parse_into(std::string_view text, T& out) {
  Result<JsonValue> doc = parse_json(text);
  if (!doc.ok()) return doc.status();
  Status s = check_version(doc.value());
  if (!s.ok()) return s;
  return read_fields(doc.value(), out);
}

template <Message T>
Result<T> parse_message(std::string_view text) {
  T out;
  Status s = parse_into(text, out);
  if (!s.ok()) return s;
  return out;
}

}  // namespace

// --------------------------------------------------------- JsonValue ------

JsonValue JsonValue::boolean(bool v) {
  JsonValue out;
  out.kind_ = Kind::kBool;
  out.bool_ = v;
  return out;
}

JsonValue JsonValue::number(double v) {
  JsonValue out;
  out.kind_ = Kind::kNumber;
  out.number_ = v;
  return out;
}

JsonValue JsonValue::integer(std::int64_t v) {
  JsonValue out;
  out.kind_ = Kind::kNumber;
  out.number_ = static_cast<double>(v);
  out.has_i64_ = true;
  out.i64_ = v;
  if (v >= 0) {
    out.has_u64_ = true;
    out.u64_ = static_cast<std::uint64_t>(v);
  }
  return out;
}

JsonValue JsonValue::unsigned_integer(std::uint64_t v) {
  JsonValue out;
  out.kind_ = Kind::kNumber;
  out.number_ = static_cast<double>(v);
  out.has_u64_ = true;
  out.u64_ = v;
  if (v <= static_cast<std::uint64_t>(INT64_MAX)) {
    out.has_i64_ = true;
    out.i64_ = static_cast<std::int64_t>(v);
  }
  return out;
}

JsonValue JsonValue::string(std::string v) {
  JsonValue out;
  out.kind_ = Kind::kString;
  out.str_ = std::move(v);
  return out;
}

JsonValue JsonValue::array() {
  JsonValue out;
  out.kind_ = Kind::kArray;
  return out;
}

JsonValue JsonValue::object() {
  JsonValue out;
  out.kind_ = Kind::kObject;
  return out;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

std::string JsonValue::dump() const {
  std::string out;
  append_value(out, *this);
  return out;
}

Result<JsonValue> parse_json(std::string_view text) {
  return JsonParser(text).parse();
}

std::string status_to_json(const Status& status) {
  return dump_message(status, false);
}

Status status_from_json(std::string_view text, Status& out) {
  return parse_into(text, out);
}

std::string to_json(const FaultStats& stats) {
  return dump_message(stats, false);
}

Result<FaultStats> fault_stats_from_json(std::string_view text) {
  return parse_message<FaultStats>(text);
}

std::string to_json(const ProgressEvent& event) {
  return dump_message(event, true);
}

Result<ProgressEvent> progress_from_json(std::string_view text) {
  return parse_message<ProgressEvent>(text);
}

std::string to_json(const WireReport& report) {
  return dump_message(report, true);
}

Result<WireReport> report_from_json(std::string_view text) {
  return parse_message<WireReport>(text);
}

std::string to_json(const WireRequest& request) {
  return dump_message(request, true);
}

Result<WireRequest> request_from_json(std::string_view text) {
  return parse_message<WireRequest>(text);
}

}  // namespace qvg::wire
