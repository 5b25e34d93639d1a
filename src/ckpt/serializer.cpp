#include "ckpt/serializer.hpp"

#include <array>
#include <bit>
#include <cstdio>
#include <fstream>

namespace unsync::ckpt {

namespace {

constexpr std::string_view kMagic = "UNSYCKPT";

// Slicing-by-16 CRC-32: table[0] is the classic byte-at-a-time table and
// table[k][i] is the CRC of byte i followed by k zero bytes, so one step
// folds sixteen input bytes into the register with independent lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 16>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

template <typename T>
T load_le(const void* p) {
  T v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// XXH64 primes and round functions (the xxHash specification).
constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kP4 = 0x85EBCA77C2B2CA63ull;
constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ull;

std::uint64_t xxh_round(std::uint64_t acc, std::uint64_t input) {
  return std::rotl(acc + input * kP2, 31) * kP1;
}

std::uint64_t xxh_merge(std::uint64_t h, std::uint64_t lane) {
  return (h ^ xxh_round(0, lane)) * kP1 + kP4;
}

CkptError truncated(std::size_t n, std::size_t at) {
  return CkptError("checkpoint truncated: need " + std::to_string(n) +
                   " bytes at offset " + std::to_string(at));
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed) {
  const auto& t = kCrcTables;
  // The eight bytes of `w`, each advanced past `k` more bytes that follow.
  const auto fold8 = [&t](std::uint64_t w, std::size_t k) {
    return t[k + 7][w & 0xFF] ^ t[k + 6][(w >> 8) & 0xFF] ^
           t[k + 5][(w >> 16) & 0xFF] ^ t[k + 4][(w >> 24) & 0xFF] ^
           t[k + 3][(w >> 32) & 0xFF] ^ t[k + 2][(w >> 40) & 0xFF] ^
           t[k + 1][(w >> 48) & 0xFF] ^ t[k][w >> 56];
  };
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (; len >= 16; p += 16, len -= 16) {
    c = fold8(load_le<std::uint64_t>(p) ^ c, 8) ^
        fold8(load_le<std::uint64_t>(p + 8), 0);
  }
  for (; len > 0; ++p, --len) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::uint64_t fingerprint64(std::string_view data) {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t left = data.size();
  std::uint64_t h;
  if (left >= 32) {
    std::uint64_t v1 = kP1 + kP2, v2 = kP2, v3 = 0, v4 = 0 - kP1;
    for (; left >= 32; p += 32, left -= 32) {
      v1 = xxh_round(v1, load_le<std::uint64_t>(p));
      v2 = xxh_round(v2, load_le<std::uint64_t>(p + 8));
      v3 = xxh_round(v3, load_le<std::uint64_t>(p + 16));
      v4 = xxh_round(v4, load_le<std::uint64_t>(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = xxh_merge(xxh_merge(xxh_merge(xxh_merge(h, v1), v2), v3), v4);
  } else {
    h = kP5;
  }
  h += data.size();
  for (; left >= 8; p += 8, left -= 8) {
    h = std::rotl(h ^ xxh_round(0, load_le<std::uint64_t>(p)), 27) * kP1 +
        kP4;
  }
  if (left >= 4) {
    h = std::rotl(h ^ load_le<std::uint32_t>(p) * kP1, 23) * kP2 + kP3;
    p += 4;
    left -= 4;
  }
  for (; left > 0; ++p, --left) h = std::rotl(h ^ *p * kP5, 11) * kP1;
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

// ---- Serializer -------------------------------------------------------------

void Serializer::begin_chunk(std::string_view tag) {
  if (tag.size() != 4) throw std::logic_error("chunk tag must be 4 chars");
  buf_.append(tag.data(), 4);
  chunk_stack_.push_back(buf_.size());
  u64(0);  // length placeholder, patched by end_chunk()
}

void Serializer::end_chunk() {
  if (chunk_stack_.empty()) throw std::logic_error("end_chunk without begin");
  const std::size_t at = chunk_stack_.back();
  chunk_stack_.pop_back();
  const std::uint64_t len = buf_.size() - (at + 8);
  std::memcpy(buf_.data() + at, &len, sizeof len);
}

// ---- Deserializer -----------------------------------------------------------

void Deserializer::throw_truncated(std::size_t n) const {
  throw truncated(n, pos_);
}

std::string Deserializer::str() {
  const std::uint64_t n = u64();
  need(n);
  std::string s = buf_.substr(pos_, n);
  pos_ += n;
  return s;
}

void Deserializer::begin_chunk(std::string_view tag) {
  need(4);
  const std::string_view got(buf_.data() + pos_, 4);
  if (got != tag) {
    throw CkptError("checkpoint chunk mismatch: expected '" +
                    std::string(tag) + "', found '" + std::string(got) + "'");
  }
  pos_ += 4;
  const std::uint64_t len = u64();
  need(len);
  limit_ = pos_ + len;
  chunk_stack_.emplace_back(std::string(tag), limit_);
}

void Deserializer::end_chunk() {
  if (chunk_stack_.empty()) throw std::logic_error("end_chunk without begin");
  const auto [tag, end] = chunk_stack_.back();
  chunk_stack_.pop_back();
  limit_ = chunk_stack_.empty() ? buf_.size() : chunk_stack_.back().second;
  if (pos_ != end) {
    throw CkptError("checkpoint chunk '" + tag + "' size mismatch: " +
                    std::to_string(end - pos_) + " bytes unconsumed");
  }
}

// ---- Container --------------------------------------------------------------

std::string wrap_container(std::string_view payload) {
  Serializer s;
  s.bytes(kMagic.data(), kMagic.size());
  s.str(kSchema);
  s.u64(payload.size());
  s.u32(crc32(payload));
  s.bytes(payload.data(), payload.size());
  return s.take();
}

std::string unwrap_container(std::string_view file_bytes) {
  // Parses the header in place; only the verified payload is copied out.
  if (file_bytes.size() < kMagic.size() ||
      file_bytes.substr(0, kMagic.size()) != kMagic) {
    throw CkptError("not a checkpoint file (bad magic)");
  }
  std::size_t pos = kMagic.size();
  const auto take = [&](std::size_t n) {
    if (file_bytes.size() - pos < n) throw truncated(n, pos);
    const std::string_view field = file_bytes.substr(pos, n);
    pos += n;
    return field;
  };
  const std::string_view schema =
      take(load_le<std::uint64_t>(take(8).data()));
  if (schema != kSchema) {
    throw CkptError("unsupported checkpoint schema '" + std::string(schema) +
                    "' (expected '" + std::string(kSchema) + "')");
  }
  const auto len = load_le<std::uint64_t>(take(8).data());
  const auto want_crc = load_le<std::uint32_t>(take(4).data());
  const std::string_view payload = file_bytes.substr(pos);
  if (payload.size() != len) {
    throw CkptError("checkpoint payload truncated: header advertises " +
                    std::to_string(len) + " bytes, " +
                    std::to_string(payload.size()) + " present");
  }
  if (crc32(payload) != want_crc) {
    throw CkptError("checkpoint CRC mismatch (file corrupted)");
  }
  return std::string(payload);
}

void atomic_write_text(const std::string& path, std::string_view content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write " + tmp);
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
    out.flush();
    if (!out) throw std::runtime_error("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("cannot rename " + tmp + " -> " + path);
  }
}

void write_file(const std::string& path, std::string_view payload) {
  atomic_write_text(path, wrap_container(payload));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open checkpoint " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return unwrap_container(bytes);
}

}  // namespace unsync::ckpt
