#ifndef POLY_RESOURCE_GOVERNOR_H_
#define POLY_RESOURCE_GOVERNOR_H_

#include <map>
#include <memory>
#include <string>

#include "common/metrics.h"
#include "resource/admission.h"
#include "resource/memory_budget.h"
#include "resource/pressure.h"

namespace poly {
namespace resource {

/// Facade tying the three workload-management pieces together (DESIGN.md
/// §13): one MemoryBudget (global limit + watermarks), an
/// AdmissionController over named workload classes, and a PressureBroker
/// wired to whatever spill target the embedder binds (normally
/// TieringDaemon::SpillForPressure). A Database points at one governor via
/// `set_resource_governor`; every `Executor::Execute` on it that brings no
/// budget of its own (every `Database::Execute` statement among them) then
/// passes through admission and runs under a per-query budget.
class ResourceGovernor {
 public:
  struct Options {
    MemoryBudget::Options budget;
    /// Workload classes to define up front. Empty = the default trio:
    ///   oltp  - many slots, small per-query budgets, short queue timeout
    ///   olap  - few slots, big budgets, longer queueing
    ///   batch - fewest slots, fail-fast (retry is the caller's job)
    /// Class quotas default to fractions of the total limit (0 if the
    /// budget itself is unlimited).
    std::map<std::string, AdmissionController::ClassOptions> classes;
    std::string default_class = "oltp";
    PressureBroker::Options pressure;
  };

  explicit ResourceGovernor(Options options,
                            metrics::Registry* registry = &metrics::Default());

  ResourceGovernor(const ResourceGovernor&) = delete;
  ResourceGovernor& operator=(const ResourceGovernor&) = delete;

  MemoryBudget& budget() { return budget_; }
  AdmissionController& admission() { return admission_; }
  PressureBroker& pressure() { return pressure_; }

  /// Accounting node for table/delta storage (child of the root, no limit:
  /// storage growth is governed by pressure-driven spill, not rejection).
  BudgetNode* storage_node() { return storage_; }

  /// Admission entry point, called by Executor::Execute. Empty class name
  /// means Options::default_class.
  StatusOr<AdmissionTicket> AdmitQuery(const std::string& workload_class) {
    return admission_.Admit(workload_class);
  }

 private:
  MemoryBudget budget_;
  AdmissionController admission_;
  PressureBroker pressure_;
  BudgetNode* storage_;
};

}  // namespace resource
}  // namespace poly

#endif  // POLY_RESOURCE_GOVERNOR_H_
