#include "catalog/catalog.h"

#include <atomic>

namespace scrpqo {

namespace {

uint64_t NextCatalogUid() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

int TableDef::ColumnIndex(const std::string& column) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name == column) return static_cast<int>(i);
  }
  return -1;
}

const IndexDef* TableDef::FindIndexOn(const std::string& column) const {
  for (const auto& idx : indexes) {
    if (idx.column == column) return &idx;
  }
  return nullptr;
}

Catalog::Catalog() : uid_(NextCatalogUid()) {}

Catalog::Catalog(const Catalog& other)
    : tables_(other.tables_),
      column_stats_(other.column_stats_),
      uid_(NextCatalogUid()) {}

Catalog::Catalog(Catalog&& other) noexcept
    : tables_(std::move(other.tables_)),
      column_stats_(std::move(other.column_stats_)),
      uid_(std::exchange(other.uid_, NextCatalogUid())) {}

Catalog& Catalog::operator=(const Catalog& other) {
  if (this == &other) return *this;
  tables_ = other.tables_;
  // Copy assignment may reuse this catalog's nodes for other columns.
  column_stats_ = other.column_stats_;
  uid_ = NextCatalogUid();
  return *this;
}

Catalog& Catalog::operator=(Catalog&& other) noexcept {
  if (this == &other) return *this;
  tables_ = std::move(other.tables_);
  column_stats_ = std::move(other.column_stats_);
  uid_ = std::exchange(other.uid_, NextCatalogUid());
  return *this;
}

Status Catalog::AddTable(TableDef def) {
  if (tables_.count(def.name) > 0) {
    return Status::AlreadyExists("table " + def.name + " already exists");
  }
  for (const auto& idx : def.indexes) {
    if (!def.HasColumn(idx.column)) {
      return Status::InvalidArgument("index " + idx.name +
                                     " references unknown column " +
                                     idx.column);
    }
  }
  tables_.emplace(def.name, std::move(def));
  return Status::OK();
}

const TableDef* Catalog::FindTable(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

const TableDef& Catalog::GetTable(const std::string& name) const {
  const TableDef* t = FindTable(name);
  SCRPQO_CHECK(t != nullptr, "unknown table: " + name);
  return *t;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, def] : tables_) names.push_back(name);
  return names;
}

void Catalog::SetColumnStats(const std::string& table,
                             const std::string& column, ColumnStats stats) {
  // Assigns into an existing node rather than replacing it, so pointers to
  // the column's stats stay valid.
  column_stats_.insert_or_assign(std::pair(table, column), std::move(stats));
}

const ColumnStats* Catalog::FindColumnStats(std::string_view table,
                                            std::string_view column) const {
  auto it = column_stats_.find(ColumnKeyLess::View(table, column));
  return it == column_stats_.end() ? nullptr : &it->second;
}

const ColumnStats& Catalog::GetColumnStats(std::string_view table,
                                           std::string_view column) const {
  const ColumnStats* s = FindColumnStats(table, column);
  if (s == nullptr) [[unlikely]] {
    std::string msg = "missing stats for ";
    msg.append(table).append(".").append(column);
    SCRPQO_CHECK(false, msg);
  }
  return *s;
}

}  // namespace scrpqo
