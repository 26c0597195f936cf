#ifndef POLY_STORAGE_EPOCH_GC_H_
#define POLY_STORAGE_EPOCH_GC_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

namespace poly {

/// Epoch-based reclamation shared by every chunked, RCU-published structure
/// of a table: version stamps, column delta ids, delta-dictionary values,
/// row chunks, and the table state itself (DESIGN.md §12.3/§12.4).
/// Stamps and values share ONE pin: a reader pins once, and every directory
/// it snapshots under that pin is protected together — this is what makes
/// the unified table ReadGuard possible.
///
/// Thread model: any number of concurrent Pin/Unpin callers; Retire and
/// ReclaimExpired may run concurrently with each other and with readers
/// (the retired list is mutex-guarded; pins never take the mutex).
class EpochGC {
 public:
  static constexpr uint64_t kIdleEpoch = ~0ull;
  static constexpr int kReaderSlots = 64;

  EpochGC() = default;
  /// Contract: no live pins at destruction; every queued free_fn runs.
  ~EpochGC();
  EpochGC(const EpochGC&) = delete;
  EpochGC& operator=(const EpochGC&) = delete;

  /// Claims an epoch slot with a seq_cst CAS and returns its index. The
  /// seq_cst pin totally orders against the reclaimer's slot scan: if the
  /// scan missed this pin, the pinner's subsequent seq_cst load of any
  /// published directory is guaranteed to return the *new* pointer, never
  /// the retired one (DESIGN.md §12.3).
  int Pin() const;
  /// Release store: everything the reader did with pinned memory
  /// happens-before a reclaimer that observes the idle slot and frees it.
  void Unpin(int slot) const;

  /// Queues free_fn stamped with a fresh epoch. Callers publish the
  /// replacement pointer (seq_cst) BEFORE retiring the old one; the epoch
  /// bump here is seq_cst so the §12.4 ordering argument holds.
  void Retire(std::function<void()> free_fn);

  /// Frees retired entries whose epoch every pinned reader has moved past.
  /// Returns the number of entries freed.
  size_t ReclaimExpired();

  size_t retired_count() const;

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> epoch{kIdleEpoch};
  };

  mutable std::array<Slot, kReaderSlots> slots_;
  std::atomic<uint64_t> epoch_{1};
  struct RetiredEntry {
    uint64_t epoch;
    std::function<void()> free_fn;
  };
  mutable std::mutex retire_mu_;
  std::vector<RetiredEntry> retired_;  // guarded by retire_mu_
};

/// RAII pin on an EpochGC.
class EpochPin {
 public:
  explicit EpochPin(const EpochGC* gc) : gc_(gc), slot_(gc->Pin()) {}
  ~EpochPin() { gc_->Unpin(slot_); }
  EpochPin(const EpochPin&) = delete;
  EpochPin& operator=(const EpochPin&) = delete;

 private:
  const EpochGC* gc_;
  int slot_;
};

}  // namespace poly

#endif  // POLY_STORAGE_EPOCH_GC_H_
