// Line scanner and block writer shared by the vp_io readers and writers.
//
// Lexical rules every reader applies under its own format's grammar:
//   - a line ends at '\n'; the '\r' of a CRLF ending is whitespace;
//   - whitespace is ' ', '\t', '\r', '\v' and '\f'; it separates tokens;
//   - blank lines, whitespace-only lines and lines whose first
//     non-whitespace byte is '%' (comments) are skipped;
//   - a number is a whole token of decimal digits, led by '-' only where
//     the field is signed: "+1", "2.5", "1x" and "0x10" are errors.
// Every error is a std::runtime_error reading "<format>: line <n>: ...".
#pragma once

#include <charconv>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "src/hypergraph/types.h"

namespace vlsipart {

/// Reads the stream in 64 KiB blocks through its buffer and hands out
/// one content line at a time, then its tokens.  Only the current block
/// is held (a block grows only to fit a longer line), so memory does not
/// grow with the file; the stream's position after a read is
/// unspecified.  Views returned by next_word() live until the next
/// next_content_line() call.
class LineScanner {
 public:
  LineScanner(std::istream& in, const char* format)
      : in_(in), format_(format), block_(kBlockSize) {}

  /// Advance to the next line that is not blank, whitespace-only or a
  /// '%' comment; false at the end of the input.
  bool next_content_line() {
    while (next_line()) {
      ++line_number_;
      if (!at_end() && *pos_ != '%') return true;
    }
    return false;
  }

  /// True when the current line has no token left.
  bool at_end() {
    while (pos_ != end_ && is_space(*pos_)) ++pos_;
    return pos_ == end_;
  }

  /// Throws unless the current line has no token left.
  void expect_end(const char* after) {
    if (at_end()) return;
    fail("unexpected '" + excerpt(next_word("")) + "' after " + after);
  }

  /// The next token of the current line; throws naming `what` if none.
  std::string_view next_word(const char* what) {
    if (at_end()) fail(std::string("missing ") + what);
    const char* const start = pos_;
    while (pos_ != end_ && !is_space(*pos_)) ++pos_;
    return {start, static_cast<std::size_t>(pos_ - start)};
  }

  /// The next token as a whole number of type T; throws naming `what`
  /// if it is missing, not a number or out of T's range.
  template <class T>
  T next_number(const char* what) {
    if (at_end()) fail(std::string("missing ") + what);
    T value{};
    const auto [stop, ec] = std::from_chars(pos_, end_, value);
    if (ec != std::errc() || (stop != end_ && !is_space(*stop))) {
      fail(std::string("bad ") + what + " '" + excerpt(next_word(what)) +
           "'");
    }
    pos_ = stop;
    return value;
  }

  /// Throws "<format>: line <n>: <message>".
  [[noreturn]] void fail(const std::string& message) const {
    throw std::runtime_error(std::string(format_) + ": line " +
                             std::to_string(line_number_) + ": " + message);
  }

  /// `token` cut to a length that keeps an error message readable.
  static std::string excerpt(std::string_view token) {
    constexpr std::size_t kMax = 40;
    return token.size() <= kMax ? std::string(token)
                                : std::string(token.substr(0, kMax)) + "...";
  }

 private:
  static constexpr std::size_t kBlockSize = std::size_t{64} * 1024;

  static bool is_space(char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
  }

  /// Point [pos_, end_) at the next line without its '\n'; false at the
  /// end of the input.  Refills the block when no '\n' is left in it.
  bool next_line() {
    for (;;) {
      char* const first = block_.data() + next_;
      char* const last = block_.data() + filled_;
      const auto left = static_cast<std::size_t>(last - first);
      if (auto* nl = static_cast<char*>(std::memchr(first, '\n', left))) {
        pos_ = first;
        end_ = nl;
        next_ = static_cast<std::size_t>(nl + 1 - block_.data());
        return true;
      }
      if (at_eof_) {
        if (first == last) return false;
        pos_ = first;  // a last line without '\n'
        end_ = last;
        next_ = filled_;
        return true;
      }
      // Keep the partial line, at the front of a block with room to read.
      filled_ = left;
      std::memmove(block_.data(), first, filled_);
      next_ = 0;
      if (filled_ == block_.size()) block_.resize(2 * block_.size());
      std::streambuf* const buf = in_.rdbuf();
      const auto room = static_cast<std::streamsize>(block_.size() - filled_);
      const std::streamsize got =
          buf == nullptr ? 0 : buf->sgetn(block_.data() + filled_, room);
      if (got <= 0) {
        at_eof_ = true;
        in_.setstate(std::ios_base::eofbit);
      } else {
        filled_ += static_cast<std::size_t>(got);
      }
    }
  }

  std::istream& in_;
  const char* format_;
  std::vector<char> block_;
  std::size_t next_ = 0;    // first byte of block_ not yet handed out
  std::size_t filled_ = 0;  // bytes of block_ read from the stream
  bool at_eof_ = false;
  const char* pos_ = nullptr;  // scan position in the current line
  const char* end_ = nullptr;  // end of the current line
  std::size_t line_number_ = 0;
};

/// Adds w to a weight total; throws when the total leaves 64 bits, which
/// would overflow the builder's own sums.
inline void add_to_weight_total(Weight& total, Weight w,
                                const LineScanner& scan, const char* what) {
  if (__builtin_add_overflow(total, w, &total)) {
    scan.fail(std::string(what) + " overflows 64 bits");
  }
}

/// Formats text into one 64 KiB block and writes the block to the stream
/// whenever it fills.  Call flush() after the last put: the destructor
/// does not write.
class BlockWriter {
 public:
  explicit BlockWriter(std::ostream& out) : out_(out), block_(kBlockSize) {}

  template <class T>
  void number(T value) {
    reserve(kMaxNumberChars);
    const auto result =
        std::to_chars(block_.data() + used_, block_.data() + kBlockSize, value);
    used_ = static_cast<std::size_t>(result.ptr - block_.data());
  }

  void put(char c) {
    reserve(1);
    block_[used_++] = c;
  }

  void flush() {
    out_.write(block_.data(), static_cast<std::streamsize>(used_));
    used_ = 0;
  }

 private:
  static constexpr std::size_t kBlockSize = std::size_t{64} * 1024;
  /// A 64-bit integer with its sign.
  static constexpr std::size_t kMaxNumberChars = 20;

  void reserve(std::size_t chars) {
    if (kBlockSize - used_ < chars) flush();
  }

  std::ostream& out_;
  std::vector<char> block_;
  std::size_t used_ = 0;
};

/// Closes a written file and throws "<format>: cannot write <path>" when
/// any write or the close failed, so a full disk is not reported as a
/// saved file.
inline void close_written(std::ofstream& out, const char* format,
                          const std::string& path) {
  out.close();
  if (!out) {
    throw std::runtime_error(std::string(format) + ": cannot write " + path);
  }
}

}  // namespace vlsipart
