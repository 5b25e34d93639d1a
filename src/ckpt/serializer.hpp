// Versioned, checksummed binary serialization for simulator checkpoints.
//
// The wire format is a tagged-chunk container ("unsync.ckpt.v1"): every
// component writes its state inside a 4-byte-tagged, length-prefixed chunk,
// so a reader can verify it is consuming exactly the section it expects and
// a format mismatch fails loudly instead of silently misaligning the byte
// stream. Files carry a magic, the schema string, a payload length and a
// CRC-32 of the payload; write_file() goes through write-to-temp + atomic
// rename so a crash mid-save never leaves a torn checkpoint behind.
//
// Scalars are little-endian fixed-width; doubles are bit-cast to u64, which
// is what makes save -> load -> save byte-identical (the bit-exactness the
// resumable-run contract in docs/CHECKPOINTS.md is built on). The codec
// moves each scalar with one memcpy (a checkpoint is ~1.2 MB, mostly cache
// tag arrays), so the host must be little-endian for those bytes to be the
// wire bytes.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace unsync::ckpt {

static_assert(std::endian::native == std::endian::little,
              "the checkpoint codec copies scalars in host byte order, which "
              "must be the little-endian wire order");

/// Schema identifier embedded in every checkpoint file header.
inline constexpr std::string_view kSchema = "unsync.ckpt.v1";

/// A malformed, truncated or corrupted checkpoint (bad magic/schema, CRC
/// mismatch, chunk-tag mismatch, or reading past the end). The CLI maps
/// this to exit code 2 — "fix the input", not "the simulation failed".
struct CkptError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `data`,
/// seedable for incremental computation.
std::uint32_t crc32(const void* data, std::size_t len,
                    std::uint32_t seed = 0);
inline std::uint32_t crc32(std::string_view s, std::uint32_t seed = 0) {
  return crc32(s.data(), s.size(), seed);
}

/// FNV-1a 64-bit hash, one multiply per byte: for short strings whose
/// digests are recorded (e.g. result digests), so it must never change. Its
/// offset basis is the published 14695981039346656037 with the last digit
/// lost; the recorded digests depend on it, so it stays.
inline std::uint64_t hash64(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis (see above)
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

/// 64-bit XXH64 (seed 0) of `data`: four 8-byte lanes per 32-byte stripe and
/// a final avalanche. Hashes the per-interval architectural-state
/// fingerprints of prefix-shared campaigns (~1 MB each), where a 32-bit
/// CRC's collision rate is too high for comfort — a collision would
/// silently splice the wrong tail onto a run. The values live only in
/// memory and are part of no file format. Not cryptographic; fine for
/// states produced by the deterministic simulator rather than an adversary.
std::uint64_t fingerprint64(std::string_view data);

/// Wire size of one record field: unsigned integers are fixed-width, a
/// bool is one byte.
template <typename T>
constexpr std::size_t wire_size() {
  static_assert(std::is_integral_v<T> && std::is_unsigned_v<T>,
                "record fields are unsigned integers or bools");
  return std::is_same_v<T, bool> ? 1 : sizeof(T);
}

class Serializer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { record(v); }
  void u64(std::uint64_t v) { record(v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void b(bool v) { u8(v ? 1 : 0); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(std::string_view s) {
    u64(s.size());
    buf_.append(s.data(), s.size());
  }
  void bytes(const void* data, std::size_t len) {
    buf_.append(static_cast<const char*>(data), len);
  }

  /// Writes a fixed record of unsigned integers and bools with one append
  /// (host order is wire order): the same bytes as one u8/u32/u64/b call
  /// per field, in order. Large arrays of small structs (cache tag arrays)
  /// write one record per element.
  template <typename... Ts>
  void record(Ts... fields) {
    char rec[(wire_size<Ts>() + ...)];
    char* p = rec;
    (encode(p, fields), ...);
    buf_.append(rec, sizeof rec);
  }

  /// Opens a tagged chunk (`tag` must be exactly 4 characters). The length
  /// is back-patched by end_chunk(); chunks nest.
  void begin_chunk(std::string_view tag);
  void end_chunk();

  const std::string& data() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  template <typename T>
  static void encode(char*& p, T v) {
    if constexpr (std::is_same_v<T, bool>) {
      *p++ = v ? 1 : 0;
    } else {
      std::memcpy(p, &v, sizeof v);
      p += sizeof v;
    }
  }

  std::string buf_;
  std::vector<std::size_t> chunk_stack_;  // offsets of pending length fields
};

class Deserializer {
 public:
  explicit Deserializer(std::string payload)
      : buf_(std::move(payload)), limit_(buf_.size()) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(buf_[pos_++]);
  }
  std::uint32_t u32() {
    std::uint32_t v;
    record(v);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v;
    record(v);
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  bool b() { return u8() != 0; }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str();

  /// Reads a record written by Serializer::record, with one bounds check
  /// for the whole record.
  template <typename... Ts>
  void record(Ts&... fields) {
    constexpr std::size_t n = (wire_size<Ts>() + ...);
    need(n);
    const char* p = buf_.data() + pos_;
    (decode(p, fields), ...);
    pos_ += n;
  }

  /// Consumes the header of a chunk and verifies its tag; end_chunk()
  /// verifies the advertised length was consumed exactly.
  void begin_chunk(std::string_view tag);
  void end_chunk();

  bool at_end() const { return pos_ == buf_.size(); }
  std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  /// A read may not cross the end of the innermost open chunk: a
  /// misaligned reader fails at the exact field, not at some later
  /// end_chunk().
  void need(std::size_t n) const {
    if (limit_ - pos_ < n) throw_truncated(n);
  }
  [[noreturn]] void throw_truncated(std::size_t n) const;

  template <typename T>
  static void decode(const char*& p, T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      v = *p++ != 0;
    } else {
      std::memcpy(&v, p, sizeof v);
      p += sizeof v;
    }
  }

  std::string buf_;
  std::size_t limit_;  // end of the innermost open chunk, else buf_.size()
  std::size_t pos_ = 0;
  std::vector<std::pair<std::string, std::size_t>> chunk_stack_;  // tag, end
};

// ---- Container I/O ----------------------------------------------------------

/// Wraps `payload` in the "unsync.ckpt.v1" container (magic, schema,
/// length, CRC-32) and returns the file bytes.
std::string wrap_container(std::string_view payload);

/// Verifies magic / schema / length / CRC and returns the payload.
/// Throws CkptError on any mismatch.
std::string unwrap_container(std::string_view file_bytes);

/// wrap_container + write-to-temp + atomic rename. Throws std::runtime_error
/// on I/O failure.
void write_file(const std::string& path, std::string_view payload);

/// Reads and unwraps a checkpoint file. Throws CkptError on corruption,
/// std::runtime_error if the file cannot be read.
std::string read_file(const std::string& path);

/// Writes `content` (arbitrary text, e.g. a JSONL journal) to `path`
/// crash-safely: write to `<path>.tmp`, flush, then atomically rename.
void atomic_write_text(const std::string& path, std::string_view content);

// ---- Container helpers ------------------------------------------------------

template <typename T, typename Fn>
void save_vec(Serializer& s, const std::vector<T>& v, Fn&& each) {
  s.u64(v.size());
  for (const auto& e : v) each(s, e);
}

template <typename T, typename Fn>
void load_vec(Deserializer& d, std::vector<T>& v, Fn&& each) {
  v.clear();
  v.resize(d.u64());
  for (auto& e : v) each(d, e);
}

inline void save_u64_vec(Serializer& s, const std::vector<std::uint64_t>& v) {
  save_vec(s, v, [](Serializer& ser, std::uint64_t x) { ser.u64(x); });
}

inline void load_u64_vec(Deserializer& d, std::vector<std::uint64_t>& v) {
  load_vec(d, v, [](Deserializer& de, std::uint64_t& x) { x = de.u64(); });
}

}  // namespace unsync::ckpt
