#include "util/table.h"

#include <cstdio>
#include <sstream>

#include "util/check.h"

namespace punica {
namespace {

// Display width of a UTF-8 string, counting multi-byte code points (e.g. µ)
// as one column.
std::size_t DisplayWidth(const std::string& s) {
  std::size_t width = 0;
  for (unsigned char c : s) {
    if ((c & 0xC0U) != 0x80U) ++width;  // count non-continuation bytes
  }
  return width;
}

void AppendPadded(std::string& out, const std::string& cell,
                  std::size_t width) {
  out += cell;
  std::size_t w = DisplayWidth(cell);
  for (std::size_t i = w; i < width; ++i) out += ' ';
}

}  // namespace

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  PUNICA_CHECK(!headers_.empty());
}

void Table::AddRow(std::vector<std::string> cells) {
  PUNICA_CHECK_MSG(cells.size() == headers_.size(),
                   "row width must match header width");
  rows_.push_back(std::move(cells));
}

std::string Table::Render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = DisplayWidth(headers_[c]);
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], DisplayWidth(row[c]));
    }
  }

  std::string out;
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    AppendPadded(out, headers_[c], widths[c]);
    out += (c + 1 < headers_.size()) ? "  " : "";
  }
  out += '\n';
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out += std::string(widths[c], '-');
    out += (c + 1 < headers_.size()) ? "  " : "";
  }
  out += '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      AppendPadded(out, row[c], widths[c]);
      out += (c + 1 < row.size()) ? "  " : "";
    }
    out += '\n';
  }
  return out;
}

void Table::Print() const { std::fputs(Render().c_str(), stdout); }

namespace {

std::string FormatWithUnit(double value, const char* unit, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f %s", precision, value, unit);
  return buf;
}

}  // namespace

std::string FormatSeconds(double s) {
  if (s < 0.0) {
    // Appended, not `"-" + …`: GCC 12's -O3 inlining of that string
    // insert raises a false -Wrestrict.
    std::string out = "-";
    out += FormatSeconds(-s);
    return out;
  }
  if (s < 1e-3) return FormatWithUnit(s * 1e6, "µs", 1);
  if (s < 1.0) return FormatWithUnit(s * 1e3, "ms", 2);
  return FormatWithUnit(s, "s", 2);
}

std::string FormatBytes(double bytes) {
  if (bytes < 1024.0) return FormatWithUnit(bytes, "B", 0);
  if (bytes < 1024.0 * 1024.0) return FormatWithUnit(bytes / 1024.0, "KB", 1);
  if (bytes < 1024.0 * 1024.0 * 1024.0) {
    return FormatWithUnit(bytes / (1024.0 * 1024.0), "MB", 1);
  }
  return FormatWithUnit(bytes / (1024.0 * 1024.0 * 1024.0), "GB", 2);
}

std::string FormatFlops(double flops_per_s) {
  if (flops_per_s < 1e9) return FormatWithUnit(flops_per_s / 1e6, "MFLOP/s", 2);
  if (flops_per_s < 1e12) {
    return FormatWithUnit(flops_per_s / 1e9, "GFLOP/s", 2);
  }
  return FormatWithUnit(flops_per_s / 1e12, "TFLOP/s", 2);
}

std::string FormatDouble(double x, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, x);
  return buf;
}

}  // namespace punica
