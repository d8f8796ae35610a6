// Strict number parsing shared by every text surface: the CLI's and the
// benches' flags, and the wgraph text format.
#pragma once

#include <charconv>
#include <limits>
#include <string>
#include <string_view>
#include <system_error>

#include "util/error.h"

namespace qc {

/// Parses `tok` as a whole unsigned decimal number that fits T. Anything
/// else — a sign, trailing junk, an empty token, an overflow — throws
/// ArgumentError whose message starts with `what` (a flag, a line) and
/// quotes the token.
template <typename T>
T parse_unsigned(std::string_view what, std::string_view tok) {
  T value = 0;
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, value);
  if (ec == std::errc::result_out_of_range) {
    throw ArgumentError(std::string(what) + ": " + std::string(tok) +
                        " is out of range (max " +
                        std::to_string(std::numeric_limits<T>::max()) + ")");
  }
  if (tok.empty() || ec != std::errc{} || ptr != end) {
    throw ArgumentError(std::string(what) +
                        ": expected an unsigned decimal integer, got '" +
                        std::string(tok) + "'");
  }
  return value;
}

}  // namespace qc
