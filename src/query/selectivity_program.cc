#include "query/selectivity_program.h"

#include "catalog/catalog.h"
#include "common/effects.h"
#include "query/query_instance.h"
#include "query/query_template.h"

namespace scrpqo {

SelectivityProgram::SelectivityProgram(const QueryTemplate& tmpl,
                                       const Catalog& catalog)
    : catalog_uid_(catalog.uid()) {
  slots_.reserve(static_cast<size_t>(tmpl.dimensions()));
  for (int slot = 0; slot < tmpl.dimensions(); ++slot) {
    const PredicateTemplate& p = tmpl.PredicateForSlot(slot);
    const std::string& table =
        tmpl.tables()[static_cast<size_t>(p.table_index)];
    slots_.push_back(Slot{&catalog.GetColumnStats(table, p.column), p.op});
  }
}

SCRPQO_HOT SCRPQO_NOALLOC SCRPQO_NONBLOCKING SCRPQO_NOTHROW
SCRPQO_LOCK_BOUNDED()
void SelectivityProgram::Evaluate(const QueryInstance& instance,
                                  std::span<double> out) const noexcept {
  SCRPQO_CHECK(out.size() == slots_.size(),
               "sVector span size must equal template dimensionality");
  for (size_t i = 0; i < slots_.size(); ++i) {
    const ColumnStats& column = *slots_[i].stats;
    out[i] = column.Selectivity(slots_[i].op,
                                instance.param(static_cast<int>(i)));
  }
}

SelectivityProgramCache& SelectivityProgramCache::operator=(
    const SelectivityProgramCache& other) {
  if (this != &other) Reset();
  return *this;
}

const SelectivityProgram& SelectivityProgramCache::For(
    const QueryTemplate& tmpl, const Catalog& catalog) const {
  const SelectivityProgram* p = current_.load(std::memory_order_acquire);
  if (p != nullptr && p->catalog_uid() == catalog.uid()) [[likely]] {
    return *p;
  }
  return Publish(tmpl, catalog);
}

const SelectivityProgram& SelectivityProgramCache::Publish(
    const QueryTemplate& tmpl, const Catalog& catalog) const {
  MutexLock lock(mu_);
  const SelectivityProgram* found = nullptr;
  for (const auto& p : compiled_) {
    if (p->catalog_uid() == catalog.uid()) found = p.get();
  }
  if (found == nullptr) {
    compiled_.push_back(
        std::make_unique<const SelectivityProgram>(tmpl, catalog));
    found = compiled_.back().get();
  }
  current_.store(found, std::memory_order_release);
  return *found;
}

void SelectivityProgramCache::Reset() {
  MutexLock lock(mu_);
  current_.store(nullptr, std::memory_order_release);
  compiled_.clear();
}

}  // namespace scrpqo
