// Catalog: schema metadata (tables, columns, indexes) and column statistics.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "expr/value.h"
#include "stats/histogram.h"

namespace scrpqo {

/// \brief How a generated column's values are distributed; the catalog keeps
/// this only as documentation — estimation always goes through histograms.
enum class ColumnDistribution {
  kSequential,   // 0, 1, 2, ... (primary keys)
  kUniform,      // uniform over [min, max]
  kZipf,         // Zipfian ranks mapped onto [min, max]
  kNormal,       // clipped normal
  kForeignKey,   // uniform or zipfian reference into another table's PK
};

/// \brief Column definition plus data-generation parameters.
struct ColumnDef {
  std::string name;
  DataType type = DataType::kInt64;
  ColumnDistribution distribution = ColumnDistribution::kUniform;
  double min_value = 0.0;
  double max_value = 1000.0;
  double zipf_theta = 0.0;       // skew for kZipf / kForeignKey
  std::string ref_table;         // for kForeignKey
};

/// \brief Secondary index over a single column (sorted row-id list in the
/// storage layer). `clustered` marks the physical sort order of the table.
struct IndexDef {
  std::string name;
  std::string column;
  bool clustered = false;
};

struct TableDef {
  std::string name;
  int64_t row_count = 0;
  std::vector<ColumnDef> columns;
  std::vector<IndexDef> indexes;

  int ColumnIndex(const std::string& column) const;
  bool HasColumn(const std::string& column) const {
    return ColumnIndex(column) >= 0;
  }
  const IndexDef* FindIndexOn(const std::string& column) const;
};

/// \brief Schema + statistics registry for one database.
///
/// Column statistics live in map nodes keyed by the (table, column) pair.
/// Node addresses are stable: `SetColumnStats` on an existing column
/// assigns into its node, so a `const ColumnStats*` taken earlier sees the
/// new statistics (compiled selectivity programs rely on this, DESIGN.md
/// §4k). Each catalog carries a process-unique `uid()` that names one set
/// of live stats nodes: a copy, a copy-assigned catalog and a moved-from
/// catalog get a fresh uid, while a moved-to catalog takes over the source's
/// nodes and with them its uid.
class Catalog {
 public:
  Catalog();
  Catalog(const Catalog& other);
  Catalog(Catalog&& other) noexcept;
  Catalog& operator=(const Catalog& other);
  Catalog& operator=(Catalog&& other) noexcept;

  /// Process-unique identity of this catalog's stats nodes; never reused.
  uint64_t uid() const { return uid_; }

  Status AddTable(TableDef def);
  const TableDef* FindTable(const std::string& name) const;
  const TableDef& GetTable(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  void SetColumnStats(const std::string& table, const std::string& column,
                      ColumnStats stats);
  const ColumnStats* FindColumnStats(std::string_view table,
                                     std::string_view column) const;
  const ColumnStats& GetColumnStats(std::string_view table,
                                    std::string_view column) const;

 private:
  /// Orders (table, column) keys and compares them with string_view pairs,
  /// so a lookup builds no string.
  struct ColumnKeyLess {
    using is_transparent = void;
    using View = std::pair<std::string_view, std::string_view>;
    static View AsView(const std::pair<std::string, std::string>& k) {
      return {k.first, k.second};
    }
    static View AsView(const View& k) { return k; }
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      return AsView(a) < AsView(b);
    }
  };

  std::map<std::string, TableDef> tables_;
  std::map<std::pair<std::string, std::string>, ColumnStats, ColumnKeyLess>
      column_stats_;
  uint64_t uid_;
};

}  // namespace scrpqo
