// Minimal command-line option parser for examples and bench binaries.
//
// Supports "--name value", "--name=value" and boolean "--flag" styles so
// every bench can expose the knobs the paper varies (tolerance, starts,
// instance set, scale) without pulling in an external dependency.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace vlsipart {

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;

  /// Numeric accessors return `fallback` when the option is absent and
  /// throw std::invalid_argument when it is present but not a clean
  /// number ("--starts=abc", "--starts 12x", a bare "--starts" flag, or
  /// an out-of-range value) — a silent 0 from strtoll would otherwise
  /// turn a typo into a wrong experiment.
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  /// Unsigned accessor for seeds: a plain decimal in [0, 2^64 - 1], with
  /// no sign and no overflow; anything else throws std::invalid_argument
  /// naming that range.
  std::uint64_t get_uint(const std::string& name,
                         std::uint64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback = false) const;

  /// Throws std::invalid_argument when any option passed on the command
  /// line is not in `allowed`, suggesting the closest allowed spelling —
  /// catches "--thread 8" (typo for "--threads") that would otherwise be
  /// silently ignored.  Call after construction with the binary's full
  /// option vocabulary.
  void check_known(const std::vector<std::string>& allowed) const;

  /// Validate an option VALUE against a closed vocabulary (same
  /// did-you-mean treatment check_known() gives option NAMES): throws
  /// std::invalid_argument listing `allowed` and suggesting the closest
  /// spelling — catches "--engine nlvel" before it silently falls into
  /// a default branch.  Returns `value` for chaining.
  static const std::string& check_known_value(
      const std::string& flag, const std::string& value,
      const std::vector<std::string>& allowed);

  /// Non-option positional arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Comma-separated list value, e.g. --cases ibm01,ibm02.
  std::vector<std::string> get_list(const std::string& name,
                                    const std::string& fallback) const;

 private:
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

/// The shared `main` of the bench, example and tool binaries: returns
/// body(argc, argv), except that a std::exception escaping it — how
/// CliArgs reports an unknown option or a malformed value, and how a
/// reader, writer or filesystem call reports a bad path — prints
/// "<argv[0]>: error: <what>" to stderr and returns 1 instead of ending
/// the process in an uncaught-exception abort.
int cli_main(int argc, char** argv, int (*body)(int, char**));

/// Overwrite an integer knob with --flag when it is given.  A value the
/// field's type cannot hold ("--starts -1" into a size_t) throws
/// std::invalid_argument naming the flag and the type's range, instead
/// of wrapping.
template <typename T>
void int_flag(const CliArgs& args, const std::string& flag, T& field) {
  if (!args.has(flag)) return;
  const std::int64_t value = args.get_int(flag, 0);
  if (!std::in_range<T>(value)) {
    throw std::invalid_argument(
        "--" + flag + " must be an integer in [" +
        std::to_string(std::numeric_limits<T>::min()) + ", " +
        std::to_string(std::numeric_limits<T>::max()) + "], got '" +
        std::to_string(value) + "'");
  }
  field = static_cast<T>(value);
}

}  // namespace vlsipart
