// Memory accounting for cached plans (paper Section 6.1): the plan list
// dominates cache memory (each re-costable plan representation runs to
// hundreds of KB in the paper's engine), while instance-list 5-tuples are
// ~100 bytes each. These estimators let the PQO layer report both.
#pragma once

#include <cstdint>

#include "optimizer/physical_plan.h"

namespace scrpqo {

/// Estimated heap bytes held by one plan tree, counting node structs,
/// child vectors, predicate specs and strings.
int64_t PlanMemoryBytes(const PhysicalPlanNode& plan);

}  // namespace scrpqo
