#include "util/record.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace tv::util {

namespace {

template <class... Ts>
struct Overloaded : Ts... {
  using Ts::operator()...;
};

/// %.17g, or "" for a non-finite value (JSON null, an empty CSV cell).
std::string number(double v) {
  if (!std::isfinite(v)) return {};
  char buf[32];
  return {buf, static_cast<std::size_t>(
                   std::snprintf(buf, sizeof buf, "%.17g", v))};
}

void write_number(std::ostream& out, double v) {
  const std::string text = number(v);
  out << (text.empty() ? "null" : text);
}

void write_value(std::ostream& out, const Value& value) {
  const auto stats = [&](const RunningStats& s) {
    if (s.count() == 0) {
      out << "null";
      return;
    }
    out << "{\"n\":" << s.count() << ",\"mean\":";
    write_number(out, s.mean());
    out << ",\"ci95\":";
    write_number(out, s.ci95_halfwidth());
    out << ",\"min\":";
    write_number(out, s.min());
    out << ",\"max\":";
    write_number(out, s.max());
    out << '}';
  };
  const auto array = [&](std::size_t size, const auto& item) {
    out << '[';
    for (std::size_t i = 0; i < size; ++i) {
      if (i > 0) out << ',';
      write_value(out, item(i));
    }
    out << ']';
  };
  std::visit(
      Overloaded{
          [&](std::monostate) { out << "null"; },
          [&](bool v) { out << (v ? "true" : "false"); },
          [&](std::int64_t v) { out << v; },
          [&](std::uint64_t v) { out << v; },
          [&](double v) { write_number(out, v); },
          [&](const std::string& v) { out << '"' << json_escape(v) << '"'; },
          stats,
          [&](const Record& v) { write_json(out, v); },
          [&](const Value::Array& v) {
            array(v.size(), [&](std::size_t i) -> const Value& {
              return v[i];
            });
          },
          [&](const Value::Lazy& v) { array(v.size, *v.item); },
      },
      value.storage());
}

/// RFC 4180 quoting, applied only where a cell needs it.
std::string csv_quote(const std::string& s) {
  if (s.find_first_of(",\"\r\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  return out + '"';
}

void flatten_into(CsvRow& row, const std::string& prefix,
                  const Record& record) {
  for (const Field& field : record.fields()) {
    const std::string key = prefix + std::string{field.key};
    const auto leaf = [&](const std::string& suffix, std::string cell) {
      row.keys.push_back(key + suffix);
      row.cells.push_back(std::move(cell));
    };
    std::visit(
        Overloaded{
            [&](std::monostate) { leaf("", ""); },
            [&](bool v) { leaf("", v ? "true" : "false"); },
            [&](std::int64_t v) { leaf("", std::to_string(v)); },
            [&](std::uint64_t v) { leaf("", std::to_string(v)); },
            [&](double v) { leaf("", number(v)); },
            [&](const std::string& v) { leaf("", csv_quote(v)); },
            [&](const RunningStats& v) {
              const bool empty = v.count() == 0;
              leaf("_mean", empty ? "" : number(v.mean()));
              leaf("_ci95", empty ? "" : number(v.ci95_halfwidth()));
            },
            [&](const Record& v) { flatten_into(row, key + "_", v); },
            [&](const Value::Array&) {},
            [&](const Value::Lazy&) {},
        },
        field.value.storage());
  }
}

}  // namespace

std::string fmt(const char* format, ...) {
  va_list args, again;
  va_start(args, format);
  va_copy(again, args);
  char buf[256];
  const auto n = static_cast<std::size_t>(
      std::max(std::vsnprintf(buf, sizeof buf, format, args), 0));
  std::string out;
  if (n < sizeof buf) {
    out.assign(buf, n);
  } else {
    out.resize(n);
    std::vsnprintf(out.data(), n + 1, format, again);
  }
  va_end(again);
  va_end(args);
  return out;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += fmt("\\u%04x", static_cast<unsigned>(c));
    } else {
      out += c;
    }
  }
  return out;
}

void write_json(std::ostream& out, const Record& record) {
  const std::vector<Field>& fields = record.fields();
  out << '{';
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out << ',';
    out << '"' << json_escape(fields[i].key) << "\":";
    write_value(out, fields[i].value);
  }
  out << '}';
}

CsvRow flatten_csv(const Record& record) {
  CsvRow row;
  flatten_into(row, "", record);
  return row;
}

}  // namespace tv::util
