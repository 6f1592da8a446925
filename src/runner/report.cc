#include "runner/report.h"

#include <algorithm>
#include <cinttypes>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#include "runner/experiment.h"

namespace ccsim::runner {

void Table::Print(std::FILE* out) const {
  std::vector<std::size_t> widths(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    widths[c] = columns_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::fprintf(out, "\n%s\n", title_.c_str());
  std::size_t total = 0;
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    std::fprintf(out, "%s%-*s", c == 0 ? "" : "  ",
                 static_cast<int>(widths[c]), columns_[c].c_str());
    total += widths[c] + (c == 0 ? 0 : 2);
  }
  std::fprintf(out, "\n");
  for (std::size_t i = 0; i < total; ++i) {
    std::fputc('-', out);
  }
  std::fprintf(out, "\n");
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      std::fprintf(out, "%s%-*s", c == 0 ? "" : "  ",
                   static_cast<int>(widths[c]), row[c].c_str());
    }
    std::fprintf(out, "\n");
  }
  std::fflush(out);
}

std::string Table::Num(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

std::string Table::Int(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  return buf;
}

BenchScale ReadBenchScale() {
  BenchScale scale;
  if (const char* env = std::getenv("CCSIM_SCALE")) {
    const double value = std::atof(env);
    if (value > 0) {
      scale.scale = value;
    }
  }
  if (const char* env = std::getenv("CCSIM_SEED")) {
    const long long value = std::atoll(env);
    if (value > 0) {
      scale.seed = static_cast<std::uint64_t>(value);
    }
  }
  if (const char* env = std::getenv("CCSIM_CHECK")) {
    scale.check = std::atoi(env) != 0;
  }
  return scale;
}

namespace {

/// `value` printed with `format`, the conversion its table row names.
template <typename T>
std::string FormatField(const char* format, T value) {
  char buf[64];
  if constexpr (std::is_floating_point_v<T>) {
    std::snprintf(buf, sizeof(buf), format, value);
  } else if constexpr (std::is_same_v<T, bool> || std::is_signed_v<T>) {
    std::snprintf(buf, sizeof(buf), format, static_cast<int>(value));
  } else {
    std::snprintf(buf, sizeof(buf), format,
                  static_cast<unsigned long long>(value));
  }
  return buf;
}

}  // namespace

std::string CsvHeader() {
  std::string out;
  ForEachField(RunResult{}, [&out](const FieldInfo& field, auto) {
    if (field.csv[0] != '\0') {
      out += out.empty() ? "" : ",";
      out += field.csv;
    }
  });
  return out;
}

std::string CsvValues(const RunResult& result) {
  std::string out;
  bool first = true;
  ForEachField(result, [&](const FieldInfo& field, auto value) {
    if (field.csv[0] != '\0') {
      out += first ? "" : ",";
      out += FormatField(field.format, value);
      first = false;
    }
  });
  return out;
}

std::string CounterSummary(const RunResult& result,
                           const std::string& prefix) {
  constexpr std::size_t kWidth = 79;  // plus the wrapped line's comma
  std::string out;
  for (const char* source :
       {"metrics", "server", "network", "injector", "checker"}) {
    bool any = false;
    ForEachField(result, [&](const FieldInfo& field, auto value) {
      any = any || (std::strcmp(field.source, source) == 0 &&
                    value != decltype(value){});
    });
    if (!any) {
      continue;
    }
    char label[32];
    std::snprintf(label, sizeof(label), "%-19s: ", source);
    std::string line = prefix + label;
    const std::size_t empty_size = line.size();
    ForEachField(result, [&](const FieldInfo& field, auto value) {
      if (std::strcmp(field.source, source) != 0) {
        return;
      }
      const std::string item =
          std::string(field.name) + " " + FormatField(field.format, value);
      if (line.size() > empty_size &&
          line.size() + 2 + item.size() > kWidth) {
        out += line + ",\n";
        line = prefix + std::string(19, ' ') + ": ";
      } else if (line.size() > empty_size) {
        line += ", ";
      }
      line += item;
    });
    out += line + "\n";
  }
  return out;
}

}  // namespace ccsim::runner
