// Compiled selectivity estimation: the per-template sVector program behind
// ComputeSelectivityVector (paper Appendix B). DESIGN.md §4k.
//
// A template's parameterized predicates are fixed, so the column statistics
// each sVector dimension reads can be resolved once. A SelectivityProgram
// holds, per parameter slot, the catalog's `const ColumnStats*` and the
// predicate's CompareOp; evaluating it is one histogram estimate per slot,
// with no catalog lookup, no string and no allocation. It runs the same
// estimate (`ColumnStats::Selectivity`) a catalog lookup would reach, so
// results are bit-identical to resolving the stats per call.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/thread_annotations.h"
#include "expr/predicate.h"

namespace scrpqo {

class Catalog;
struct ColumnStats;
class QueryInstance;
class QueryTemplate;

/// \brief One template's sVector computation, bound to one catalog.
///
/// The slots point into the catalog's stats map nodes. Those outlive the
/// program only while the catalog they came from is alive; the program
/// records that catalog's `Catalog::uid()`, and `SelectivityProgramCache`
/// hands a program out only for a catalog with the same uid. Uids are never
/// reused, so a program whose catalog is gone can never be selected again.
class SelectivityProgram {
 public:
  /// Resolves every parameterized predicate of `tmpl` against `catalog`.
  /// Aborts if a predicate's column has no statistics (as
  /// `Catalog::GetColumnStats` does).
  SelectivityProgram(const QueryTemplate& tmpl, const Catalog& catalog);

  uint64_t catalog_uid() const { return catalog_uid_; }
  int dimensions() const { return static_cast<int>(slots_.size()); }

  /// Writes the sVector of `instance` (an instance of the template this
  /// program was compiled from) into `out`, which must hold exactly
  /// `dimensions()` values. An effect-analyzer root: the definition carries
  /// SCRPQO_HOT / NOALLOC / NONBLOCKING / NOTHROW / LOCK_BOUNDED().
  void Evaluate(const QueryInstance& instance,
                std::span<double> out) const noexcept;

 private:
  struct Slot {
    const ColumnStats* stats = nullptr;
    CompareOp op = CompareOp::kLe;
  };

  uint64_t catalog_uid_ = 0;
  std::vector<Slot> slots_;
};

/// \brief The compiled programs a `QueryTemplate` owns, one per catalog it
/// has been evaluated against.
///
/// The warm read is one acquire load of the published program and a uid
/// compare; it writes nothing shared. On a uid mismatch (first use, or a
/// different catalog) `For` takes `mu_`, reuses or compiles the catalog's
/// program, and publishes it. Published programs are kept until `Reset` or
/// destruction, because a concurrent reader may still hold one.
///
/// A copy starts empty, so a copied template recompiles against its own
/// predicates. `Reset` (called by `QueryTemplate::AddPredicate`) must not
/// race `For`; a template is not mutated while it is being served.
class SelectivityProgramCache {
 public:
  SelectivityProgramCache() = default;
  SelectivityProgramCache(const SelectivityProgramCache&) noexcept {}
  SelectivityProgramCache& operator=(const SelectivityProgramCache& other);

  /// `tmpl`'s program against `catalog`, compiled on first use.
  const SelectivityProgram& For(const QueryTemplate& tmpl,
                                const Catalog& catalog) const;

  /// Drops every compiled program.
  void Reset();

 private:
  const SelectivityProgram& Publish(const QueryTemplate& tmpl,
                                    const Catalog& catalog) const
      EXCLUDES(mu_);

  mutable std::atomic<const SelectivityProgram*> current_{nullptr};
  mutable Mutex mu_;
  mutable std::vector<std::unique_ptr<const SelectivityProgram>> compiled_
      GUARDED_BY(mu_);
};

}  // namespace scrpqo
