// Small string helpers used by domain handling and report rendering.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace iotls {

/// Split on a single-character delimiter; keeps empty fields.
std::vector<std::string> split(std::string_view s, char delim);

/// Zero-copy split: views into `s`, keeps empty fields. The views alias
/// `s`'s storage — the caller owns keeping it alive.
std::vector<std::string_view> split_views(std::string_view s, char delim);

/// Allocation-free split into a caller-provided span: fills `out` with up
/// to out.size() field views and returns the number of fields in `s`. When
/// the return value exceeds out.size(), only the first out.size() fields
/// were written (callers use this to reject rows with too many columns
/// without ever allocating).
std::size_t split_views(std::string_view s, char delim,
                        std::span<std::string_view> out);

/// Join with a delimiter string.
std::string join(const std::vector<std::string>& parts, std::string_view delim);

/// ASCII lower-case copy.
std::string to_lower(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

/// Second-level domain of an FQDN: "a2.tuyaus.com" -> "tuyaus.com".
/// Handles a small list of two-part public suffixes seen in the paper's
/// dataset ("co.kr", "co.uk", "com.cn"), e.g. "pavv.co.kr" -> "pavv.co.kr".
std::string second_level_domain(std::string_view fqdn);

/// Parse a decimal unsigned integer in [0, max]. Digits only: a sign,
/// whitespace, trailing text, overflow or a value above `max` yields
/// nullopt rather than a wrapped or negated number.
std::optional<std::uint64_t> parse_u64(std::string_view text, std::uint64_t max);

/// Format a double with fixed decimals (report tables).
std::string fmt_double(double v, int decimals);

/// Format a ratio as a percentage string, e.g. 0.7747 -> "77.47%".
std::string fmt_percent(double ratio, int decimals = 2);

}  // namespace iotls
