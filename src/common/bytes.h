// Little-endian byte writer/reader used to serialize protocol messages
// for the wire transports. The simulator passes messages by value and
// only uses serialized sizes for bandwidth/CPU accounting.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace mrp {

using Bytes = std::vector<std::uint8_t>;

// Non-owning view of immutable bytes: a span with value equality, used
// by the zero-copy decode paths (net/codec.h). The viewed storage must
// outlive the view; PayloadBuf pairs one with a shared keep-alive.
class ConstByteView {
 public:
  constexpr ConstByteView() = default;
  constexpr ConstByteView(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  ConstByteView(const Bytes& b) : data_(b.data()), size_(b.size()) {}
  ConstByteView(std::span<const std::uint8_t> s) : data_(s.data()), size_(s.size()) {}

  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const std::uint8_t* begin() const { return data_; }
  const std::uint8_t* end() const { return data_ + size_; }
  std::uint8_t operator[](std::size_t i) const { return data_[i]; }

  operator std::span<const std::uint8_t>() const { return {data_, size_}; }

  friend bool operator==(ConstByteView a, ConstByteView b) {
    return a.size_ == b.size_ &&
           (a.size_ == 0 || std::memcmp(a.data_, b.data_, a.size_) == 0);
  }

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

// Payload storage for protocol messages: either an owned byte vector or
// a view into a shared frame buffer (zero-copy decode keeps the frame
// alive instead of copying the payload out of it). Equality is over
// contents, so owned and viewing payloads are interchangeable.
class PayloadBuf {
 public:
  PayloadBuf() = default;
  PayloadBuf(Bytes b) : owned_(std::move(b)) {}

  static PayloadBuf MakeView(ConstByteView view, std::shared_ptr<const void> keep) {
    PayloadBuf p;
    p.view_ = view;
    p.keep_ = std::move(keep);
    return p;
  }

  const std::uint8_t* data() const { return keep_ ? view_.data() : owned_.data(); }
  std::size_t size() const { return keep_ ? view_.size() : owned_.size(); }
  bool empty() const { return size() == 0; }
  const std::uint8_t* begin() const { return data(); }
  const std::uint8_t* end() const { return data() + size(); }

  // True when this payload owns its bytes (false for zero-copy views).
  bool owning() const { return keep_ == nullptr; }
  ConstByteView view() const { return {data(), size()}; }
  Bytes ToBytes() const { return Bytes(begin(), end()); }

  void assign(std::size_t n, std::uint8_t v) {
    keep_.reset();
    view_ = {};
    owned_.assign(n, v);
  }
  void clear() {
    keep_.reset();
    view_ = {};
    owned_.clear();
  }

  operator std::span<const std::uint8_t>() const { return {data(), size()}; }

  friend bool operator==(const PayloadBuf& a, const PayloadBuf& b) {
    return a.view() == b.view();
  }

 private:
  Bytes owned_;                       // used when keep_ == nullptr
  ConstByteView view_;                // used when keep_ != nullptr
  std::shared_ptr<const void> keep_;  // keeps the viewed frame alive
};

class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { AppendLe(&v, sizeof v); }
  void u32(std::uint32_t v) { AppendLe(&v, sizeof v); }
  void u64(std::uint64_t v) { AppendLe(&v, sizeof v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }

  // Unsigned LEB128; compact for the small counts that dominate headers.
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  void bytes(std::span<const std::uint8_t> data) {
    varint(data.size());
    buf_.insert(buf_.end(), data.begin(), data.end());
  }
  void bytes(const Bytes& data) { bytes(std::span<const std::uint8_t>(data)); }
  void str(std::string_view s) {
    varint(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  const Bytes& data() const { return buf_; }
  Bytes take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  void AppendLe(const void* p, std::size_t n) {
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    std::memcpy(buf_.data() + at, p, n);  // little-endian hosts only
  }

  Bytes buf_;
};

// Non-owning reader. All accessors return std::nullopt on underflow so a
// malformed packet can never read out of bounds.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}
  explicit ByteReader(const Bytes& data) : data_(data) {}
  // Zero-copy mode: payload() returns views into *frame that share its
  // ownership instead of copying the bytes out. `offset` skips a
  // transport header that shares the frame buffer (clamped to the
  // frame's size).
  explicit ByteReader(std::shared_ptr<const Bytes> frame,
                      std::size_t offset = 0)
      : data_(frame->data() + std::min(offset, frame->size()),
              frame->size() - std::min(offset, frame->size())),
        keep_(std::move(frame)) {}

  std::optional<std::uint8_t> u8() {
    if (pos_ + 1 > data_.size()) return std::nullopt;
    return data_[pos_++];
  }
  std::optional<std::uint16_t> u16() { return Fixed<std::uint16_t>(); }
  std::optional<std::uint32_t> u32() { return Fixed<std::uint32_t>(); }
  std::optional<std::uint64_t> u64() { return Fixed<std::uint64_t>(); }
  std::optional<std::int64_t> i64() {
    auto v = u64();
    if (!v) return std::nullopt;
    return static_cast<std::int64_t>(*v);
  }
  std::optional<double> f64() {
    auto bits = u64();
    if (!bits) return std::nullopt;
    double v;
    std::memcpy(&v, &*bits, sizeof v);
    return v;
  }

  std::optional<std::uint64_t> varint() {
    std::uint64_t v = 0;
    int shift = 0;
    while (pos_ < data_.size() && shift < 64) {
      std::uint8_t b = data_[pos_++];
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if (!(b & 0x80)) return v;
      shift += 7;
    }
    return std::nullopt;
  }

  // Length checks are in subtraction form: a huge attacker-chosen varint
  // length must not wrap `pos_ + *n` around and slip past the bound.
  std::optional<Bytes> bytes() {
    auto n = varint();
    if (!n || *n > data_.size() - pos_) return std::nullopt;
    Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
              data_.begin() + static_cast<std::ptrdiff_t>(pos_ + *n));
    pos_ += *n;
    return out;
  }
  // Length-prefixed payload field: a view sharing the frame's ownership
  // in zero-copy mode, an owned copy otherwise.
  std::optional<PayloadBuf> payload() {
    auto n = varint();
    if (!n || *n > data_.size() - pos_) return std::nullopt;
    const ConstByteView view(data_.data() + pos_, static_cast<std::size_t>(*n));
    pos_ += *n;
    if (keep_ != nullptr) return PayloadBuf::MakeView(view, keep_);
    return PayloadBuf(Bytes(view.begin(), view.end()));
  }
  std::optional<std::string> str() {
    auto n = varint();
    if (!n || *n > data_.size() - pos_) return std::nullopt;
    std::string out(reinterpret_cast<const char*>(data_.data() + pos_), *n);
    pos_ += *n;
    return out;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

 private:
  template <typename T>
  std::optional<T> Fixed() {
    if (pos_ + sizeof(T) > data_.size()) return std::nullopt;
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof v);
    pos_ += sizeof v;
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::shared_ptr<const Bytes> keep_;  // non-null in zero-copy mode
  std::size_t pos_ = 0;
};

}  // namespace mrp
