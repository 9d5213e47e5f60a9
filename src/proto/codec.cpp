#include "proto/codec.hpp"

#include <array>

namespace ph::proto {

namespace {

/// Appends `v` little-endian with a single insert.
template <typename T>
void append_le(Bytes& buf, T v) {
  std::array<std::uint8_t, sizeof(T)> le;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    le[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  buf.insert(buf.end(), le.begin(), le.end());
}

}  // namespace

void Writer::u16(std::uint16_t v) { append_le(buf_, v); }

void Writer::u32(std::uint32_t v) { append_le(buf_, v); }

void Writer::u64(std::uint64_t v) { append_le(buf_, v); }

void Writer::str(std::string_view v) {
  u32(static_cast<std::uint32_t>(v.size()));
  buf_.insert(buf_.end(), v.begin(), v.end());
}

void Writer::bytes(BytesView v) {
  u32(static_cast<std::uint32_t>(v.size()));
  buf_.insert(buf_.end(), v.begin(), v.end());
}

void Writer::filler(std::uint32_t n, std::uint8_t byte) {
  u32(n);
  buf_.insert(buf_.end(), n, byte);
}

void Writer::str_list(const std::vector<std::string>& v) {
  u32(static_cast<std::uint32_t>(v.size()));
  for (const auto& s : v) str(s);
}

Result<void> Reader::need(std::size_t n) {
  if (remaining() < n) {
    return Error{Errc::protocol_error, "truncated message"};
  }
  return ok();
}

Result<std::uint8_t> Reader::u8() {
  if (auto r = need(1); !r) return r.error();
  return data_[pos_++];
}

Result<std::uint16_t> Reader::u16() {
  if (auto r = need(2); !r) return r.error();
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                    static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

Result<std::uint32_t> Reader::u32() {
  if (auto r = need(4); !r) return r.error();
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

Result<std::uint64_t> Reader::u64() {
  if (auto r = need(8); !r) return r.error();
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

Result<std::string> Reader::str() {
  auto view = str_view();
  if (!view) return view.error();
  return std::string(*view);
}

Result<std::string_view> Reader::str_view() {
  auto view = bytes_view();
  if (!view) return view.error();
  return std::string_view(reinterpret_cast<const char*>(view->data()),
                          view->size());
}

Result<Bytes> Reader::bytes() {
  auto view = bytes_view();
  if (!view) return view.error();
  return Bytes(view->begin(), view->end());
}

Result<BytesView> Reader::bytes_view() {
  auto len = u32();
  if (!len) return len.error();
  if (auto r = need(*len); !r) return r.error();
  const BytesView out = data_.subspan(pos_, *len);
  pos_ += *len;
  return out;
}

Result<std::uint32_t> Reader::skip_bytes() {
  auto view = bytes_view();
  if (!view) return view.error();
  return static_cast<std::uint32_t>(view->size());
}

Result<std::vector<std::string>> Reader::str_list() {
  auto count = u32();
  if (!count) return count.error();
  // Each entry needs at least its 4-byte length prefix; reject counts that
  // could not possibly fit (defends against hostile length fields).
  if (*count > remaining() / 4) {
    return Error{Errc::protocol_error, "implausible list length"};
  }
  std::vector<std::string> out;
  out.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto s = str();
    if (!s) return s.error();
    out.push_back(std::move(*s));
  }
  return out;
}

}  // namespace ph::proto
