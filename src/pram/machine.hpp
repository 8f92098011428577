// Synchronous PRAM simulator with instruction-cost accounting and
// shared-memory access auditing.
//
// This module is the repository's stand-in for SimParC (Haber & Ben-Asher's
// simulator, paper reference [5]).  It executes *synchronous parallel steps*:
// each step is a batch of independent work items scheduled onto P simulated
// processors.  Within a step,
//   - all shared READS observe the memory state from before the step, and
//   - all shared WRITES are buffered and applied when the step ends,
// which is exactly the semantics the paper's pointer-jumping rounds assume
// ("in each iteration ... performed in parallel for all traces").
//
// The machine also audits the access pattern of every step and rejects
// programs that violate the declared PRAM variant (EREW/CREW/common-CRCW),
// so tests can *prove* the Ordinary-IR schedule is CREW-clean.
//
// The scheduler models the paper's processor-capped version: at most P
// processes are forked per step and each loops over its block of items, so
// simulated time follows T(n, P) = (n/P) · (rounds) · c — the complexity the
// paper states for its practical variant.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "pram/cost_model.hpp"
#include "support/contract.hpp"

namespace ir::pram {

/// PRAM variant used for the access audit.
enum class AccessMode {
  kErew,        ///< exclusive read, exclusive write
  kCrew,        ///< concurrent read, exclusive write
  kCommonCrcw,  ///< concurrent read, concurrent write iff all write the same bytes
};

/// Thrown by the audit when a step violates the declared access mode.
class AccessConflict : public std::logic_error {
 public:
  explicit AccessConflict(const std::string& what) : std::logic_error(what) {}
};

/// Aggregate statistics of a simulated execution.
struct Stats {
  std::uint64_t steps = 0;         ///< synchronous parallel steps executed
  std::uint64_t work = 0;          ///< total instructions across all processors
  std::uint64_t time = 0;          ///< simulated time: critical path over processors
  std::uint64_t forks = 0;         ///< processes forked
  std::uint64_t shared_reads = 0;  ///< shared-memory loads issued
  std::uint64_t shared_writes = 0; ///< shared-memory stores issued
};

class Machine;

/// Processing-element view handed to each work item.  All shared-memory
/// traffic must flow through this handle so it can be priced and audited.
class Pe {
 public:
  /// Cost-accounted shared read.  Returns the cell itself, which holds its
  /// pre-step value until the step ends (writes in the current step are
  /// buffered); copy it to keep it past the step.
  template <typename T>
  const T& read(const T& cell);

  /// Cost-accounted shared write, applied at the end of the step.
  template <typename T>
  void write(T& cell, T value);

  /// Charge `n` local ALU instructions.
  void local(std::uint64_t n = 1) noexcept;

  /// Charge one application of the user's binary operator.
  void apply_op(std::uint64_t n = 1) noexcept;

  /// Index of the item being executed.
  [[nodiscard]] std::size_t item() const noexcept { return item_; }

  /// Simulated processor executing this item.
  [[nodiscard]] std::size_t processor() const noexcept { return processor_; }

 private:
  friend class Machine;
  explicit Pe(Machine& machine) : machine_(machine) {}

  Machine& machine_;
  std::size_t item_ = 0;
  std::size_t processor_ = 0;
  std::uint64_t item_cost_ = 0;
};

/// The simulated machine.  Not thread-safe: simulation is deterministic and
/// sequential by design (it is a cost model, not an execution engine).
class Machine {
 public:
  /// @param processors  number of simulated processors P (>= 1)
  /// @param mode        PRAM variant enforced by the audit
  /// @param cost        instruction prices
  /// @param audit       disable to skip conflict bookkeeping in large benches
  explicit Machine(std::size_t processors, AccessMode mode = AccessMode::kCrew,
                   CostModel cost = {}, bool audit = true);

  /// Execute one synchronous step of `count` work items.  `body` is invoked
  /// as body(Pe&, item_index) for every item; items are block-partitioned
  /// onto the P processors.  Shared writes issued through the Pe are applied
  /// after every item has run; the audit then checks the step's access
  /// pattern against the machine's mode.
  void step(std::size_t count, const std::function<void(Pe&, std::size_t)>& body);

  /// Convenience: a purely sequential loop on processor 0 (one step whose
  /// items all land on one processor) — used for original-loop baselines.
  void sequential(std::size_t count, const std::function<void(Pe&, std::size_t)>& body);

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t processors() const noexcept { return processors_; }
  [[nodiscard]] const CostModel& cost() const noexcept { return cost_; }
  [[nodiscard]] AccessMode mode() const noexcept { return mode_; }

  /// Reset all statistics (memory contents are the caller's arrays and are
  /// untouched).
  void reset_stats() noexcept { stats_ = Stats{}; }

  /// Shared-access trace of one completed step, handed to the step observer
  /// just before the buffered writes are applied.  Reads carry one entry per
  /// issued load (duplicates preserved) and require the audit to be on —
  /// with audit off, `reads` is always empty; writes are always recorded.
  struct StepAccesses {
    std::vector<const void*> reads;
    std::vector<const void*> writes;
  };
  using StepObserver = std::function<void(const StepAccesses&)>;

  /// Install (or clear, with nullptr) a per-step observer.  Lets validation
  /// tests compute ground-truth bank occupancy from the simulated machine's
  /// actual address trace (verify/cost.hpp's predictor is checked against
  /// this).  Called once per step(), after the audit, before writes apply.
  void set_step_observer(StepObserver observer) { observer_ = std::move(observer); }

 private:
  friend class Pe;

  struct PendingWrite {
    const void* address;
    std::size_t size;
    std::function<void()> apply;
    std::vector<unsigned char> image;  ///< bytes to be written (for common-CRCW audit)
    std::size_t item;
  };

  void record_read(const void* address, std::size_t size, std::size_t item);
  void record_write(PendingWrite write);
  void run_step(std::size_t count, std::size_t processors_used,
                const std::function<void(Pe&, std::size_t)>& body);
  void audit_step();

  std::size_t processors_;
  AccessMode mode_;
  CostModel cost_;
  bool audit_;
  Stats stats_;
  StepObserver observer_;

  // Per-step state.
  std::vector<PendingWrite> pending_writes_;
  std::unordered_map<const void*, std::vector<std::size_t>> reads_by_address_;
};

template <typename T>
const T& Pe::read(const T& cell) {
  item_cost_ += machine_.cost_.shared_read;
  ++machine_.stats_.shared_reads;
  if (machine_.audit_) machine_.record_read(&cell, sizeof(T), item_);
  return cell;
}

template <typename T>
void Pe::write(T& cell, T value) {
  item_cost_ += machine_.cost_.shared_write;
  ++machine_.stats_.shared_writes;
  Machine::PendingWrite pending;
  pending.address = &cell;
  pending.size = sizeof(T);
  pending.item = item_;
  if (machine_.audit_ && machine_.mode_ == AccessMode::kCommonCrcw) {
    // Common-CRCW legality compares the written images bytewise; only
    // trivially copyable payloads can be audited that way.
    if constexpr (std::is_trivially_copyable_v<T>) {
      const auto* bytes = reinterpret_cast<const unsigned char*>(&value);
      pending.image.assign(bytes, bytes + sizeof(T));
    }
  }
  pending.apply = [&cell, value = std::move(value)]() mutable { cell = std::move(value); };
  machine_.record_write(std::move(pending));
}

inline void Pe::local(std::uint64_t n) noexcept { item_cost_ += n * machine_.cost_.local_op; }

inline void Pe::apply_op(std::uint64_t n) noexcept { item_cost_ += n * machine_.cost_.apply_op; }

}  // namespace ir::pram
