// Field-walk codec behind every wire message. A message lists its fields
// once, in wire order (MRP_WIRE_MESSAGE below); the same walk encodes it
// (Put), decodes it (Get) and sizes it (Size), so the bytes the simulator
// charges are the bytes the codec writes.
//
// Field encodings (little-endian):
//   bool, enums, unsigned integers  fixed width (bool as u8 0/1)
//   Duration                         i64 nanoseconds
//   std::string, Bytes               varint length + bytes
//   std::vector<T>                   varint count (capped on decode) + T...
//   std::optional<T>                 u8 presence flag (any non-zero) + T
//   std::pair<A, B>                  A then B
//   a struct with MRP_WIRE_FIELDS    its fields in order
// A struct may define `bool Valid() const`; decode rejects it when false.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/message.h"
#include "common/types.h"

// Declares the wire fields of a struct, in wire order.
#define MRP_WIRE_FIELDS(...)         \
  template <class V>                 \
  auto Fields(V&& v) {               \
    return v(__VA_ARGS__);           \
  }                                  \
  template <class V>                 \
  auto Fields(V&& v) const {         \
    return v(__VA_ARGS__);           \
  }

// Declares a wire message: its tag (unique, listed in net/registry.h),
// its TypeName() and its fields. WireSize() is the size pass over those
// fields; the default constructor is what the decoder fills in.
#define MRP_WIRE_MESSAGE(Type, tag, name, ...)                            \
  static constexpr std::uint8_t kTag = tag;                               \
  static constexpr ::mrp::MessageType kType{kTag, name};                  \
  Type() = default;                                                       \
  const ::mrp::MessageType& type() const override { return kType; }      \
  std::size_t WireSize() const override {                                 \
    return 1 + ::mrp::wire::Size(*this); /* tag byte + fields */          \
  }                                                                       \
  MRP_WIRE_FIELDS(__VA_ARGS__)

namespace mrp::wire {

// Decode-time bound on a collection's element count (Capped overrides it).
inline constexpr std::uint64_t kMaxCount = 1'000'000;

// A vector field whose decoded count is capped at N instead of kMaxCount.
template <std::uint64_t N, class V>
struct CappedRef {
  static constexpr std::uint64_t kCap = N;
  V& v;
};
template <std::uint64_t N, class V>
CappedRef<N, V> Capped(V& v) {
  return {v};
}

// A payload the simulator may elide: encoded as a length-prefixed blob
// (empty when elided), sized as if its `size` bytes were present.
template <class P, class S>
struct PayloadRef {
  P& payload;
  S& size;
};
template <class P, class S>
PayloadRef<P, S> Payload(P& payload, S& size) {
  return {payload, size};
}

inline std::size_t VarintSize(std::uint64_t v) {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

// Bounds a collection's reserve() by what the remaining frame bytes could
// possibly encode, so a short hostile frame declaring a huge element count
// cannot force a large allocation up front. The decode loop still fails
// fast on the first truncated element.
inline std::size_t ClampReserve(std::uint64_t count, std::size_t remaining,
                                std::size_t min_element_bytes) {
  const std::uint64_t cap = remaining / min_element_bytes + 1;
  return static_cast<std::size_t>(count < cap ? count : cap);
}

namespace detail {
template <class T> struct IsVector : std::false_type {};
template <class T, class A> struct IsVector<std::vector<T, A>> : std::true_type {};
template <class T> struct IsOptional : std::false_type {};
template <class T> struct IsOptional<std::optional<T>> : std::true_type {};
template <class T> struct IsPair : std::false_type {};
template <class A, class B> struct IsPair<std::pair<A, B>> : std::true_type {};
template <class T> struct IsCapped : std::false_type {};
template <std::uint64_t N, class V> struct IsCapped<CappedRef<N, V>> : std::true_type {};
template <class T> struct IsPayload : std::false_type {};
template <class P, class S> struct IsPayload<PayloadRef<P, S>> : std::true_type {};
}  // namespace detail

template <class T>
std::size_t Size(const T& v);

template <class T>
void Put(ByteWriter& w, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    w.u8(v ? 1 : 0);
  } else if constexpr (std::is_enum_v<T>) {
    Put(w, static_cast<std::underlying_type_t<T>>(v));
  } else if constexpr (std::is_unsigned_v<T>) {
    if constexpr (sizeof(T) == 1) w.u8(v);
    if constexpr (sizeof(T) == 2) w.u16(v);
    if constexpr (sizeof(T) == 4) w.u32(v);
    if constexpr (sizeof(T) == 8) w.u64(v);
  } else if constexpr (std::is_same_v<T, Duration>) {
    w.i64(v.count());
  } else if constexpr (std::is_same_v<T, std::string>) {
    w.str(v);
  } else if constexpr (std::is_same_v<T, Bytes>) {
    w.bytes(v);
  } else if constexpr (detail::IsVector<T>::value) {
    w.varint(v.size());
    for (const auto& e : v) Put(w, e);
  } else if constexpr (detail::IsOptional<T>::value) {
    w.u8(v.has_value() ? 1 : 0);
    if (v) Put(w, *v);
  } else if constexpr (detail::IsPair<T>::value) {
    Put(w, v.first);
    Put(w, v.second);
  } else if constexpr (detail::IsCapped<T>::value) {
    Put(w, v.v);
  } else if constexpr (detail::IsPayload<T>::value) {
    w.bytes(std::span<const std::uint8_t>(v.payload));
  } else {
    v.Fields([&w](const auto&... f) { (Put(w, f), ...); });
  }
}

// Smallest encoding of an element, for ClampReserve.
template <class E>
std::size_t MinSize() {
  static const std::size_t kMin = Size(E{});
  return kMin;
}

template <std::uint64_t Cap, class E>
bool GetSeq(ByteReader& r, std::vector<E>& v);

template <class T>
bool Get(ByteReader& r, T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    auto x = r.u8();
    if (!x) return false;
    v = *x != 0;
  } else if constexpr (std::is_enum_v<T>) {
    std::underlying_type_t<T> x = 0;
    if (!Get(r, x)) return false;
    v = static_cast<T>(x);
  } else if constexpr (std::is_unsigned_v<T>) {
    std::optional<T> x;
    if constexpr (sizeof(T) == 1) x = r.u8();
    if constexpr (sizeof(T) == 2) x = r.u16();
    if constexpr (sizeof(T) == 4) x = r.u32();
    if constexpr (sizeof(T) == 8) x = r.u64();
    if (!x) return false;
    v = *x;
  } else if constexpr (std::is_same_v<T, Duration>) {
    auto x = r.i64();
    if (!x) return false;
    v = Duration(*x);
  } else if constexpr (std::is_same_v<T, std::string>) {
    auto x = r.str();
    if (!x) return false;
    v = std::move(*x);
  } else if constexpr (std::is_same_v<T, Bytes>) {
    auto x = r.bytes();
    if (!x) return false;
    v = std::move(*x);
  } else if constexpr (detail::IsVector<T>::value) {
    return GetSeq<kMaxCount>(r, v);
  } else if constexpr (detail::IsOptional<T>::value) {
    bool present = false;
    if (!Get(r, present)) return false;
    v.reset();
    if (present) return Get(r, v.emplace());
  } else if constexpr (detail::IsPair<T>::value) {
    return Get(r, v.first) && Get(r, v.second);
  } else if constexpr (detail::IsCapped<T>::value) {
    return GetSeq<T::kCap>(r, v.v);
  } else if constexpr (detail::IsPayload<T>::value) {
    auto x = r.payload();
    if (!x) return false;
    v.payload = std::move(*x);
  } else {
    if (!v.Fields([&r](auto&&... f) { return (Get(r, f) && ...); })) return false;
    if constexpr (requires { v.Valid(); }) return v.Valid();
  }
  return true;
}

template <std::uint64_t Cap, class E>
bool GetSeq(ByteReader& r, std::vector<E>& v) {
  auto n = r.varint();
  if (!n || *n > Cap) return false;
  v.clear();
  v.reserve(ClampReserve(*n, r.remaining(), MinSize<E>()));
  for (std::uint64_t i = 0; i < *n; ++i) {
    if (!Get(r, v.emplace_back())) return false;
  }
  return true;
}

template <class T>
std::size_t Size(const T& v) {
  if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T> || std::is_unsigned_v<T>) {
    return sizeof(T);
  } else if constexpr (std::is_same_v<T, Duration>) {
    return 8;
  } else if constexpr (std::is_same_v<T, std::string> || std::is_same_v<T, Bytes>) {
    return VarintSize(v.size()) + v.size();
  } else if constexpr (detail::IsVector<T>::value) {
    std::size_t n = VarintSize(v.size());
    if constexpr (std::is_arithmetic_v<typename T::value_type>) {
      n += v.size() * sizeof(typename T::value_type);
    } else {
      for (const auto& e : v) n += Size(e);
    }
    return n;
  } else if constexpr (detail::IsOptional<T>::value) {
    return 1 + (v ? Size(*v) : 0);
  } else if constexpr (detail::IsPair<T>::value) {
    return Size(v.first) + Size(v.second);
  } else if constexpr (detail::IsCapped<T>::value) {
    return Size(v.v);
  } else if constexpr (detail::IsPayload<T>::value) {
    return VarintSize(v.size) + v.size;
  } else {
    return v.Fields([](const auto&... f) { return (std::size_t{0} + ... + Size(f)); });
  }
}

}  // namespace mrp::wire
