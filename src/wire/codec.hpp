// Compact, versioned, dependency-free binary serialization primitives.
//
// The wire format is a flat tag-type-payload stream, little-endian, with a
// 4-byte envelope in front of every top-level message:
//
//   envelope:  u16 magic 0x5157 ('WQ')  |  u8 version  |  u8 message kind
//   field:     u8 tag  |  u8 type  |  payload
//   payload:   kU64  -> 8 bytes LE
//              kF64  -> 8 bytes (IEEE-754 bit pattern, LE)
//              kBytes-> u32 LE length + raw bytes
//              kMsg  -> u32 LE length + nested fields (no envelope)
//
// Design rules, in order of importance:
//   * Round-trip exactness. Doubles travel as bit patterns (never text), so
//     encode(decode(x)) == x to the last bit — including NaN payloads.
//     Signed integers travel as two's-complement u64.
//   * Version tolerance without a schema compiler. Every field is
//     self-delimiting, so a reader skips tags it does not know; new fields
//     can be appended by a newer writer and old messages simply leave new
//     fields at their defaults. The envelope version is for *incompatible*
//     changes only (a reader rejects a version it does not speak with a
//     typed error, never by guessing).
//   * Malformed input is a typed kParseError, never UB. Every read is
//     bounds-checked against the buffer; a truncated or corrupt stream
//     fails cleanly at the first short read (the wire fuzz test drives
//     every truncation length through the decoders under ASan/UBSan).
//
// WireWriter appends fields to a byte buffer; WireReader walks one. The
// message-level encode/decode functions live in wire/messages.hpp; the JSON
// lane (same messages, human-readable) in wire/json.hpp. Which fields a
// message carries, and under which tags, is not spelled out here or there:
// wire/schema.hpp holds one field table per message, and adding or
// reserving a field is one row of it.
#pragma once

#include "common/status.hpp"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace qvg::wire {

/// Wire payload types (the u8 after each tag).
enum class FieldType : std::uint8_t {
  kU64 = 0,
  kF64 = 1,
  kBytes = 2,
  kMsg = 3,
};

/// Envelope constants.
inline constexpr std::uint16_t kMagic = 0x5157;  // 'WQ' little-endian
inline constexpr std::uint8_t kWireVersion = 1;

/// Top-level message kinds (the envelope's fourth byte).
enum class MessageKind : std::uint8_t {
  kRequest = 1,
  kReport = 2,
  kProgress = 3,
  kStatus = 4,
  kFaultStats = 5,
};

/// Append-only field writer over an owned byte buffer.
class WireWriter {
 public:
  /// Start a top-level message: writes the envelope.
  void begin(MessageKind kind);

  void u64(std::uint8_t tag, std::uint64_t value);
  /// Signed values travel as two's-complement u64 (exact round trip).
  void i64(std::uint8_t tag, std::int64_t value) {
    u64(tag, static_cast<std::uint64_t>(value));
  }
  /// Doubles travel as IEEE-754 bit patterns: exact, NaN-preserving.
  void f64(std::uint8_t tag, double value);
  void str(std::uint8_t tag, std::string_view value);
  /// A contiguous array of doubles as one kBytes field (8 bytes LE each) —
  /// the CSD pixel lane.
  void f64_array(std::uint8_t tag, std::span<const double> values);
  /// Nested message: the callee-filled writer's buffer becomes the payload.
  void msg(std::uint8_t tag, const WireWriter& nested);

  [[nodiscard]] const std::vector<std::uint8_t>& buffer() const noexcept {
    return buffer_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() && {
    return std::move(buffer_);
  }

 private:
  void put_u32(std::uint32_t value);
  void put_u64(std::uint64_t value);
  std::vector<std::uint8_t> buffer_;
};

/// One decoded field: the tag, the type, and a view of the payload bytes
/// (still encoded; use the typed as_* accessors).
struct WireField {
  std::uint8_t tag = 0;
  FieldType type = FieldType::kU64;
  std::span<const std::uint8_t> payload;

  [[nodiscard]] std::uint64_t as_u64() const;
  [[nodiscard]] std::int64_t as_i64() const {
    return static_cast<std::int64_t>(as_u64());
  }
  [[nodiscard]] double as_f64() const;
  [[nodiscard]] std::string as_string() const;
  /// Payload reinterpreted as packed LE doubles; fails (kParseError) when
  /// the length is not a multiple of 8.
  [[nodiscard]] Result<std::vector<double>> as_f64_array() const;
};

/// Forward-only field reader over a borrowed byte buffer. The buffer must
/// outlive the reader. All reads are bounds-checked; any structural problem
/// surfaces as a typed kParseError from next().
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> buffer)
      : buffer_(buffer) {}

  /// Check and consume the envelope; fails on short input, bad magic, an
  /// unsupported version, or a kind mismatch.
  [[nodiscard]] Status expect_envelope(MessageKind kind);

  /// The next field, std::nullopt at clean end-of-buffer, or kParseError on
  /// a truncated/corrupt field. Unknown tags are returned like any other
  /// field — message decoders skip them (version tolerance).
  [[nodiscard]] Result<std::optional<WireField>> next();

 private:
  std::span<const std::uint8_t> buffer_;
  std::size_t pos_ = 0;
};

/// Convenience: typed parse failure in stage "wire".
[[nodiscard]] Status wire_error(std::string detail);

}  // namespace qvg::wire
