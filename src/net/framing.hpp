// NDJSON line framing for the TCP transport (DESIGN.md §16).
//
// The wire format is exactly the `rls serve` stdin format: one JSON
// object per '\n'-terminated line. A TCP read boundary can land anywhere
// — mid-line, mid-escape, between lines — so the splitter is fully
// incremental: feed() any chunking of the same bytes and the emitted
// line sequence is identical (the fuzz `net-frame` oracle pins this).
//
// Hostile-input rules, each a typed FrameError:
//   * kOversize — a line longer than max_line_bytes (before its '\n').
//     Detected as soon as the buffered prefix exceeds the cap, so a
//     client streaming an unterminated gigabyte is cut off at the cap,
//     not at OOM.
//   * kNul — an embedded NUL byte anywhere in the stream. NDJSON is
//     text; NUL is only ever an attack or corruption.
//
// A trailing '\r' is stripped from each line (CRLF tolerance). Empty
// lines are emitted — transport keep-alives are the caller's policy,
// not the framer's.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace rls::net {

class FrameError : public std::runtime_error {
 public:
  enum class Kind { kOversize, kNul };

  FrameError(Kind kind, std::string what)
      : std::runtime_error(std::move(what)), kind(kind) {}

  const Kind kind;
};

class LineSplitter {
 public:
  explicit LineSplitter(std::size_t max_line_bytes)
      : max_line_bytes_(max_line_bytes) {}

  /// Appends a chunk, invoking `on_line` once per completed line (the
  /// view is valid only during the call). Throws FrameError on a NUL
  /// byte or an oversize line; lines completed earlier in the same
  /// chunk have already been delivered when it throws.
  void feed(std::string_view chunk,
            const std::function<void(std::string_view)>& on_line);

  /// EOF: returns the final unterminated line, if any bytes are
  /// buffered (a sender that omits the last '\n' still gets served).
  [[nodiscard]] std::optional<std::string> finish();

 private:
  [[nodiscard]] static std::string_view strip_cr(std::string_view line) {
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    return line;
  }

  std::size_t max_line_bytes_;
  std::string partial_;
};

}  // namespace rls::net
