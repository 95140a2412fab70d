#include "wire/codec.hpp"

#include "common/assert.hpp"

#include <bit>
#include <cstring>

namespace qvg::wire {

Status wire_error(std::string detail) {
  return Status::failure(ErrorCode::kParseError, "wire", std::move(detail));
}

// ---------------------------------------------------------------- writer --

void WireWriter::begin(MessageKind kind) {
  QVG_EXPECTS(buffer_.empty());
  buffer_.push_back(static_cast<std::uint8_t>(kMagic & 0xff));
  buffer_.push_back(static_cast<std::uint8_t>(kMagic >> 8));
  buffer_.push_back(kWireVersion);
  buffer_.push_back(static_cast<std::uint8_t>(kind));
}

void WireWriter::put_u32(std::uint32_t value) {
  for (int i = 0; i < 4; ++i)
    buffer_.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
}

void WireWriter::put_u64(std::uint64_t value) {
  for (int i = 0; i < 8; ++i)
    buffer_.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
}

void WireWriter::u64(std::uint8_t tag, std::uint64_t value) {
  buffer_.push_back(tag);
  buffer_.push_back(static_cast<std::uint8_t>(FieldType::kU64));
  put_u64(value);
}

void WireWriter::f64(std::uint8_t tag, double value) {
  buffer_.push_back(tag);
  buffer_.push_back(static_cast<std::uint8_t>(FieldType::kF64));
  put_u64(std::bit_cast<std::uint64_t>(value));
}

void WireWriter::str(std::uint8_t tag, std::string_view value) {
  QVG_EXPECTS(value.size() <= 0xffffffffu);
  buffer_.push_back(tag);
  buffer_.push_back(static_cast<std::uint8_t>(FieldType::kBytes));
  put_u32(static_cast<std::uint32_t>(value.size()));
  buffer_.insert(buffer_.end(), value.begin(), value.end());
}

void WireWriter::f64_array(std::uint8_t tag, std::span<const double> values) {
  QVG_EXPECTS(values.size() <= 0xffffffffu / 8);
  buffer_.push_back(tag);
  buffer_.push_back(static_cast<std::uint8_t>(FieldType::kBytes));
  put_u32(static_cast<std::uint32_t>(values.size() * 8));
  for (double v : values) put_u64(std::bit_cast<std::uint64_t>(v));
}

void WireWriter::msg(std::uint8_t tag, const WireWriter& nested) {
  QVG_EXPECTS(nested.buffer_.size() <= 0xffffffffu);
  buffer_.push_back(tag);
  buffer_.push_back(static_cast<std::uint8_t>(FieldType::kMsg));
  put_u32(static_cast<std::uint32_t>(nested.buffer_.size()));
  buffer_.insert(buffer_.end(), nested.buffer_.begin(), nested.buffer_.end());
}

// ---------------------------------------------------------------- fields --

namespace {

std::uint64_t read_u64_le(std::span<const std::uint8_t> bytes) {
  QVG_ASSERT(bytes.size() >= 8);
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) value |= std::uint64_t{bytes[i]} << (8 * i);
  return value;
}

}  // namespace

std::uint64_t WireField::as_u64() const {
  // The reader only hands out kU64/kF64 fields with exactly 8 payload
  // bytes, so these accessors cannot over-read; a type confusion (asking a
  // bytes field for a u64) is a caller bug, not a wire error.
  QVG_EXPECTS(type == FieldType::kU64 && payload.size() == 8);
  return read_u64_le(payload);
}

double WireField::as_f64() const {
  QVG_EXPECTS(type == FieldType::kF64 && payload.size() == 8);
  return std::bit_cast<double>(read_u64_le(payload));
}

std::string WireField::as_string() const {
  QVG_EXPECTS(type == FieldType::kBytes);
  return std::string(reinterpret_cast<const char*>(payload.data()),
                     payload.size());
}

Result<std::vector<double>> WireField::as_f64_array() const {
  if (type != FieldType::kBytes)
    return wire_error("f64 array field has wrong wire type");
  if (payload.size() % 8 != 0)
    return wire_error("f64 array length " + std::to_string(payload.size()) +
                      " is not a multiple of 8");
  std::vector<double> values(payload.size() / 8);
  for (std::size_t i = 0; i < values.size(); ++i)
    values[i] = std::bit_cast<double>(read_u64_le(payload.subspan(8 * i, 8)));
  return values;
}

// ---------------------------------------------------------------- reader --

Status WireReader::expect_envelope(MessageKind kind) {
  if (buffer_.size() - pos_ < 4)
    return wire_error("message shorter than the 4-byte envelope");
  const std::uint16_t magic =
      static_cast<std::uint16_t>(buffer_[pos_]) |
      static_cast<std::uint16_t>(std::uint16_t{buffer_[pos_ + 1]} << 8);
  if (magic != kMagic)
    return wire_error("bad magic 0x" + std::to_string(magic) +
                      " (not a qvg wire message)");
  const std::uint8_t version = buffer_[pos_ + 2];
  if (version != kWireVersion)
    return wire_error("unsupported wire version " + std::to_string(version) +
                      " (this build speaks version " +
                      std::to_string(kWireVersion) + ")");
  const std::uint8_t got_kind = buffer_[pos_ + 3];
  if (got_kind != static_cast<std::uint8_t>(kind))
    return wire_error("message kind " + std::to_string(got_kind) +
                      " where kind " +
                      std::to_string(static_cast<std::uint8_t>(kind)) +
                      " was expected");
  pos_ += 4;
  return Status();
}

Result<std::optional<WireField>> WireReader::next() {
  if (pos_ >= buffer_.size()) return std::optional<WireField>(std::nullopt);
  if (buffer_.size() - pos_ < 2)
    return wire_error("truncated field header at offset " +
                      std::to_string(pos_));
  WireField field;
  field.tag = buffer_[pos_];
  const std::uint8_t raw_type = buffer_[pos_ + 1];
  if (raw_type > static_cast<std::uint8_t>(FieldType::kMsg))
    return wire_error("unknown field type " + std::to_string(raw_type) +
                      " at offset " + std::to_string(pos_));
  field.type = static_cast<FieldType>(raw_type);
  pos_ += 2;

  std::size_t length = 0;
  if (field.type == FieldType::kU64 || field.type == FieldType::kF64) {
    length = 8;
  } else {
    if (buffer_.size() - pos_ < 4)
      return wire_error("truncated length prefix at offset " +
                        std::to_string(pos_));
    std::uint32_t len32 = 0;
    for (int i = 0; i < 4; ++i)
      len32 |= std::uint32_t{buffer_[pos_ + static_cast<std::size_t>(i)]}
               << (8 * i);
    pos_ += 4;
    length = len32;
  }
  if (buffer_.size() - pos_ < length)
    return wire_error("field payload (" + std::to_string(length) +
                      " bytes) runs past end of buffer at offset " +
                      std::to_string(pos_));
  field.payload = buffer_.subspan(pos_, length);
  pos_ += length;
  return std::optional<WireField>(field);
}

}  // namespace qvg::wire
