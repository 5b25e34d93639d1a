// Tiny key=value configuration store with typed getters.
//
// Used by the examples and benches so that simulator parameters (Table I and
// the architecture knobs) can be overridden from the command line without a
// heavyweight flags library:  ./quickstart cb_entries=64 fi=30
//
// Misconfiguration safety: from_args reports malformed tokens (e.g. "=8")
// to stderr, and every getter marks its key as consumed, so a front end can
// call unused_keys() after dispatch and fail loudly on a typo like
// `thread=8` instead of silently running with defaults. Numeric getters
// parse the whole value: "5e4" is not the integer 5, and a malformed value
// throws ConfigError naming the key.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace unsync {

/// A malformed configuration value (or, in front ends, any misuse of the
/// command line). Front ends map it to their "fix the invocation" exit code.
struct ConfigError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

class Config {
 public:
  Config() = default;

  /// Parses "key=value" tokens (e.g. argv). Unrecognised tokens without '='
  /// are returned as positional arguments. Malformed tokens with an empty
  /// key ("=value") are reported on stderr and treated as positional.
  static Config from_args(int argc, const char* const* argv,
                          std::vector<std::string>* positional = nullptr);

  void set(const std::string& key, const std::string& value);
  bool has(const std::string& key) const;

  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;

  /// A non-negative count that fits in T: the value must be decimal digits
  /// only, so "-1" is an error rather than a wrapped 4294967295.
  template <typename T = std::uint64_t>
  T get_count(const std::string& key, T fallback) const {
    static_assert(std::is_unsigned_v<T>, "counts are unsigned");
    return static_cast<T>(
        parse_count(key, fallback, std::numeric_limits<T>::max()));
  }
  bool get_bool(const std::string& key, bool fallback) const;

  /// All keys in insertion order (for help / echo output).
  std::vector<std::string> keys() const;

  /// Keys that were set but never consulted by any getter (including
  /// has()), in insertion order — the misspelled-knob detector.
  std::vector<std::string> unused_keys() const;

  /// Every key any getter (or has()) asked about, in first-consulted order
  /// — the vocabulary the command actually understands, whether or not the
  /// key was supplied. report_unused() matches unused keys against it to
  /// suggest the intended spelling.
  std::vector<std::string> known_keys() const;

  /// If any key went unused, prints one stderr line naming them (prefixed
  /// with `context`) and returns true. Keys within a small edit distance of
  /// a known key get a "did you mean" suggestion. Front ends treat the
  /// return as an error; long-form demos may choose to warn only.
  bool report_unused(const std::string& context) const;

 private:
  struct Entry {
    std::string key;
    std::string value;
    mutable bool accessed = false;
  };

  std::optional<std::string> find(const std::string& key) const;
  std::uint64_t parse_count(const std::string& key, std::uint64_t fallback,
                            std::uint64_t max) const;
  std::vector<Entry> entries_;
  /// Keys consulted through find(), deduplicated, in first-asked order.
  mutable std::vector<std::string> consulted_;
};

}  // namespace unsync
