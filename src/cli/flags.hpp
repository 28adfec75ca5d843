// Minimal declarative flag parser for the rls command-line tools.
//
// Replaces the CLI's former ad-hoc argv scanning (prefix matches inside a
// loop, silently ignoring typos) with one reusable component: register
// typed flags, parse an argv range, get the leftover positionals back.
//
//   FlagParser fp;
//   unsigned threads = 0; bool progress = false; std::string trace;
//   fp.add_uint("threads", &threads, "worker threads (0 = hardware)");
//   fp.add_bool("progress", &progress, "live status lines on stderr");
//   fp.add_string("trace", &trace, "JSONL trace output file");
//   std::vector<std::string> pos = fp.parse(argc, argv, 2);
//
// Accepted syntax: --name=value, --name value (valued flags), --name
// (boolean flags), and a literal "--" that ends flag parsing. Unknown
// flags and malformed values throw FlagError with a message naming the
// offending argument — every subcommand reports mistakes the same way.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace rls::cli {

class FlagError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Strict unsigned-integer parse used for every add_uint flag and for bare
/// positional numbers (seeds, budgets). Accepts only ASCII decimal digits:
/// no sign (strtoull silently wraps "-5" to 2^64-5), no leading
/// whitespace, no trailing garbage, and no values above `max`. Throws
/// FlagError naming `what` (and, when out of range, the range) on any
/// violation.
std::uint64_t parse_uint(const std::string& what, const std::string& text,
                         std::uint64_t max = UINT64_MAX);

class FlagParser {
 public:
  /// Boolean switch: present -> true ("--name"); "--name=0/1" also works.
  void add_bool(std::string name, bool* out, std::string help = {});
  /// Unsigned integer value, range-checked against the destination
  /// type: a value above max(T) is a FlagError naming the flag and its
  /// range, never a silent narrowing.
  template <typename T>
  void add_uint(std::string name, T* out, std::string help = {}) {
    static_assert(std::is_unsigned_v<T> && !std::is_same_v<T, bool>,
                  "add_uint wants an unsigned integer destination");
    specs_.push_back({std::move(name), false, std::move(help),
                      [out](const std::string& flag, const std::string& text) {
                        *out = static_cast<T>(parse_uint(
                            flag, text, std::numeric_limits<T>::max()));
                      }});
  }
  /// Floating-point value (e.g. probability thresholds).
  void add_double(std::string name, double* out, std::string help = {});
  /// String value.
  void add_string(std::string name, std::string* out, std::string help = {});

  /// Parses argv[begin..argc); writes matched flags through the registered
  /// pointers and returns the positional arguments in order. Throws
  /// FlagError on an unknown flag, a missing value, or a malformed number.
  [[nodiscard]] std::vector<std::string> parse(int argc,
                                               const char* const* argv,
                                               int begin = 1) const;

  /// One "  --name  help" line per registered flag (usage text).
  [[nodiscard]] std::string help() const;

 private:
  struct Spec {
    std::string name;
    bool is_bool;  ///< "--name" alone means "--name=1"
    std::string help;
    /// Parses the value text ("--name" is the flag) into the destination;
    /// throws FlagError, writing nothing, on a bad value.
    std::function<void(const std::string& flag, const std::string& text)> set;
  };
  [[nodiscard]] const Spec* find(std::string_view name) const;

  std::vector<Spec> specs_;
};

}  // namespace rls::cli
