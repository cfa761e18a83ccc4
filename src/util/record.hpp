// Ordered result record, the one output layer of every grid engine: a grid
// turns each row into a Record (field order = output order) and
// util/sink.hpp renders it through the single JSON and CSV renderers here.
//   * Doubles print at %.17g, non-finite ones as null.
//   * A RunningStats prints as {"n","mean","ci95","min","max"}, or as null
//     when it has no samples.
//   * CSV flattens the record: a nested key becomes `parent_key`, a
//     statistic `key_mean,key_ci95` (empty when null); arrays are omitted.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "util/stats.hpp"

namespace tv::util {

/// printf into a std::string (any length).
[[nodiscard]] std::string fmt(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// JSON string contents: escapes quotes, backslashes and control bytes.
[[nodiscard]] std::string json_escape(std::string_view s);

class Value;
struct Field;

/// Ordered key/value list.  Keys must outlive the record (string literals
/// or other static strings).
class Record {
 public:
  Record& add(std::string_view key, Value value);
  [[nodiscard]] const std::vector<Field>& fields() const { return fields_; }

 private:
  std::vector<Field> fields_;
};

/// One record value: null, bool, integer, double, string, statistics,
/// nested record or array.
class Value {
 public:
  using Array = std::vector<Value>;
  /// An array whose items are made one at a time while rendering, so a
  /// large array (10k per-flow records) never sits in memory whole.
  /// `item` reads what it captures: render while that is alive.  It sits
  /// behind a shared_ptr because GCC 12 raises -Wmaybe-uninitialized on a
  /// std::function held in the variant directly.
  struct Lazy {
    using Item = std::function<Value(std::size_t)>;
    Lazy(std::size_t n, Item f)
        : size(n), item(std::make_shared<const Item>(std::move(f))) {}
    std::size_t size;
    std::shared_ptr<const Item> item;
  };
  using Storage = std::variant<std::monostate, bool, std::int64_t,
                               std::uint64_t, double, std::string,
                               RunningStats, Record, Array, Lazy>;

  Value() = default;  ///< null
  Value(bool v) : v_(v) {}
  template <class T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  Value(T v)
      : v_(static_cast<std::conditional_t<std::is_signed_v<T>, std::int64_t,
                                          std::uint64_t>>(v)) {}
  Value(double v) : v_(v) {}
  Value(const char* v) : v_(std::string{v}) {}
  Value(std::string_view v) : v_(std::string{v}) {}
  Value(std::string v) : v_(std::move(v)) {}
  Value(const RunningStats& v) : v_(v) {}
  Value(Record v) : v_(std::move(v)) {}
  Value(Array v) : v_(std::move(v)) {}
  Value(Lazy v) : v_(std::move(v)) {}

  [[nodiscard]] const Storage& storage() const { return v_; }

 private:
  Storage v_;
};

struct Field {
  std::string_view key;
  Value value;
};

inline Record& Record::add(std::string_view key, Value value) {
  fields_.push_back(Field{key, std::move(value)});
  return *this;
}

/// Streams the record to `out` as one JSON object (no trailing newline).
void write_json(std::ostream& out, const Record& record);

/// The record's CSV leaves, in field order.
struct CsvRow {
  std::vector<std::string> keys;
  std::vector<std::string> cells;  ///< quoted where RFC 4180 needs it.
};
[[nodiscard]] CsvRow flatten_csv(const Record& record);

}  // namespace tv::util
