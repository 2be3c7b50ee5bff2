#include "util/strings.hpp"

#include <array>
#include <cctype>
#include <charconv>
#include <cstdio>

namespace iotls {

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string_view> split_views(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::size_t split_views(std::string_view s, char delim,
                        std::span<std::string_view> out) {
  std::size_t fields = 0;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = s.find(delim, start);
    std::string_view field =
        pos == std::string_view::npos ? s.substr(start) : s.substr(start, pos - start);
    if (fields < out.size()) out[fields] = field;
    ++fields;
    if (pos == std::string_view::npos) return fields;
    start = pos + 1;
  }
}

std::string join(const std::vector<std::string>& parts, std::string_view delim) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += delim;
    out += parts[i];
  }
  return out;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

std::string second_level_domain(std::string_view fqdn) {
  static const std::array<std::string_view, 6> kTwoPartSuffixes = {
      "co.kr", "co.uk", "co.jp", "com.cn", "com.br", "net.au"};
  std::vector<std::string> labels = split(fqdn, '.');
  if (labels.size() <= 2) return std::string(fqdn);
  std::string last_two = labels[labels.size() - 2] + "." + labels.back();
  bool two_part_suffix = false;
  for (auto suffix : kTwoPartSuffixes) {
    if (last_two == suffix) {
      two_part_suffix = true;
      break;
    }
  }
  std::size_t keep = two_part_suffix ? 3 : 2;
  if (labels.size() <= keep) return std::string(fqdn);
  std::vector<std::string> tail(labels.end() - static_cast<std::ptrdiff_t>(keep),
                                labels.end());
  return join(tail, ".");
}

std::optional<std::uint64_t> parse_u64(std::string_view text, std::uint64_t max) {
  // from_chars into an unsigned type rejects '-', '+' and whitespace and
  // reports overflow instead of wrapping.
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value > max) return std::nullopt;
  return value;
}

std::string fmt_double(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

std::string fmt_percent(double ratio, int decimals) {
  return fmt_double(ratio * 100.0, decimals) + "%";
}

}  // namespace iotls
