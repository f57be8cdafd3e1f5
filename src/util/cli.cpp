#include "src/util/cli.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <stdexcept>

namespace vlsipart {
namespace {

/// Levenshtein distance, used only for "did you mean" hints on unknown
/// options (names are short, so the O(n*m) DP is trivial).
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t previous = row[j];
      const std::size_t substitute =
          diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, substitute});
      diagonal = previous;
    }
  }
  return row[b.size()];
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      options_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // "--name value" if the next token is not itself an option;
    // otherwise a boolean flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options_[arg] = argv[++i];
    } else {
      options_[arg] = "true";
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  return options_.count(name) > 0;
}

std::string CliArgs::get(const std::string& name,
                         const std::string& fallback) const {
  const auto it = options_.find(name);
  return it == options_.end() ? fallback : it->second;
}

std::int64_t CliArgs::get_int(const std::string& name,
                              std::int64_t fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  const std::string& text = it->second;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
    throw std::invalid_argument("--" + name + " expects an integer, got '" +
                                text + "'");
  }
  return value;
}

std::uint64_t CliArgs::get_uint(const std::string& name,
                               std::uint64_t fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  const std::string& text = it->second;
  const char* const end = text.data() + text.size();
  std::uint64_t value = 0;
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || stop != end) {
    throw std::invalid_argument(
        "--" + name + " must be an integer in [0, " +
        std::to_string(std::numeric_limits<std::uint64_t>::max()) +
        "], got '" + text + "'");
  }
  return value;
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  const std::string& text = it->second;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
    throw std::invalid_argument("--" + name + " expects a number, got '" +
                                text + "'");
  }
  return value;
}

void CliArgs::check_known(const std::vector<std::string>& allowed) const {
  for (const auto& [name, value] : options_) {
    if (std::find(allowed.begin(), allowed.end(), name) != allowed.end()) {
      continue;
    }
    std::string message = "unknown option --" + name;
    std::size_t best = 4;  // suggest only close matches
    const std::string* suggestion = nullptr;
    for (const std::string& candidate : allowed) {
      const std::size_t d = edit_distance(name, candidate);
      if (d < best) {
        best = d;
        suggestion = &candidate;
      }
    }
    if (suggestion != nullptr) {
      message += " (did you mean --" + *suggestion + "?)";
    }
    throw std::invalid_argument(message);
  }
}

const std::string& CliArgs::check_known_value(
    const std::string& flag, const std::string& value,
    const std::vector<std::string>& allowed) {
  if (std::find(allowed.begin(), allowed.end(), value) != allowed.end()) {
    return value;
  }
  std::string vocabulary;
  for (const std::string& candidate : allowed) {
    if (!vocabulary.empty()) vocabulary += "|";
    vocabulary += candidate;
  }
  std::string message =
      "unknown --" + flag + " (" + vocabulary + "): " + value;
  std::size_t best = 4;
  const std::string* suggestion = nullptr;
  for (const std::string& candidate : allowed) {
    const std::size_t d = edit_distance(value, candidate);
    if (d < best) {
      best = d;
      suggestion = &candidate;
    }
  }
  if (suggestion != nullptr) {
    message += " (did you mean --" + flag + " " + *suggestion + "?)";
  }
  throw std::invalid_argument(message);
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  const std::string& v = it->second;
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

std::vector<std::string> CliArgs::get_list(const std::string& name,
                                           const std::string& fallback) const {
  const std::string joined = get(name, fallback);
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= joined.size()) {
    const auto comma = joined.find(',', start);
    const std::string token =
        joined.substr(start, comma == std::string::npos ? std::string::npos
                                                        : comma - start);
    if (!token.empty()) out.push_back(token);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

int cli_main(int argc, char** argv, int (*body)(int, char**)) {
  try {
    return body(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: error: %s\n", argc > 0 ? argv[0] : "?",
                 e.what());
    return 1;
  }
}

}  // namespace vlsipart
