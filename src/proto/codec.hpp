// Binary wire codec: little-endian fixed-width integers, length-prefixed
// strings and vectors. Reader returns Result so malformed/truncated input
// from the network surfaces as Errc::protocol_error, never UB.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/result.hpp"

namespace ph::proto {

class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Length-prefixed (u32) byte string.
  void str(std::string_view v);
  void bytes(BytesView v);
  /// Appends `v` as is, without a length prefix.
  void raw(BytesView v) { buf_.insert(buf_.end(), v.begin(), v.end()); }
  /// Length-prefixed (u32) run of `n` copies of `byte`: the wire image of
  /// bytes(Bytes(n, byte)) without building the run first.
  void filler(std::uint32_t n, std::uint8_t byte);
  void str_list(const std::vector<std::string>& v);

  const Bytes& data() const& { return buf_; }
  Bytes take() && { return std::move(buf_); }
  /// Empties the buffer but keeps its capacity, so a Writer kept across
  /// messages encodes without allocating once it has seen the largest.
  void clear() noexcept { buf_.clear(); }

 private:
  Bytes buf_;
};

class Reader {
 public:
  explicit Reader(BytesView data) : data_(data) {}

  Result<std::uint8_t> u8();
  Result<std::uint16_t> u16();
  Result<std::uint32_t> u32();
  Result<std::uint64_t> u64();
  Result<std::string> str();
  /// str() without the copy: the view borrows from the input, so it is
  /// valid only while the bytes being read are.
  Result<std::string_view> str_view();
  Result<Bytes> bytes();
  /// bytes() without the copy; borrows from the input like str_view().
  Result<BytesView> bytes_view();
  /// Steps over a length-prefixed byte string without copying it; returns
  /// its length. Errc::protocol_error if the length runs past the end.
  Result<std::uint32_t> skip_bytes();
  Result<std::vector<std::string>> str_list();

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool exhausted() const noexcept { return remaining() == 0; }

 private:
  Result<void> need(std::size_t n);

  BytesView data_;
  std::size_t pos_ = 0;
};

}  // namespace ph::proto
