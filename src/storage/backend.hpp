#pragma once

/// \file backend.hpp
/// \brief Simulation-facing checkpoint storage devices.
///
/// A backend prices each checkpoint operation at the moment it starts, from
/// (a) the task's memory footprint (calibrated curves, Fig 7 / Table 4),
/// (b) the number of checkpoints concurrently in flight on the same server
///     (contention, Tables 2-3), and
/// (c) optional multiplicative measurement noise, reproducing the min/avg/max
///     spread the paper reports over 25 repetitions.
///
/// Ops already in flight are not repriced when new writers arrive; the paper
/// measures steady-state parallel degrees, which this approximates.
///
/// Hot-path notes: the memory-dependent part of a price is a pure function
/// of (device, footprint) — callers replaying a task many times cache it via
/// base_price() and start ops with begin_priced(), skipping the calibration
/// curve on every checkpoint. In-flight ops are tracked in a slot/generation
/// slab (OpSlab), so op bookkeeping never touches a hash map or the heap.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "stats/rng.hpp"
#include "storage/calibration.hpp"
#include "storage/contention.hpp"

namespace cloudcr::storage {

/// Handle returned when a checkpoint op begins.
struct CheckpointTicket {
  std::uint64_t op_id = 0;   ///< pass back to end_checkpoint()
  double cost = 0.0;         ///< wall-clock increment charged to the task (s)
  double op_time = 0.0;      ///< how long the device stays busy (s)
  std::size_t server = 0;    ///< which server received the write
};

/// Contention-free price of one checkpoint: the memory-dependent base that
/// begin_priced() scales by the live parallel degree and noise. Pure
/// function of (device kind, footprint) — safe to cache per task.
struct CheckpointPrice {
  double cost_s = 0.0;
  double op_time_s = 0.0;
};

/// Relative half-width of the multiplicative measurement noise; matches the
/// ~±10 % spread between the min and max rows of Tables 2-3.
inline constexpr double kDefaultNoise = 0.10;

/// Allocation-free registry of in-flight checkpoint ops. Op ids encode
/// (slot, generation); ending an op is an O(1) generation check, and stale
/// or double ends are ignored (idempotent), as the device contract requires.
class OpSlab {
 public:
  /// Registers an op carrying a small payload (server index). Returns its id.
  std::uint64_t begin(std::uint32_t payload) {
    std::uint32_t slot;
    if (free_head_ != kNone) {
      slot = free_head_;
      free_head_ = slots_[slot].next_free;
    } else {
      slots_.push_back(Slot{});
      slot = static_cast<std::uint32_t>(slots_.size() - 1);
    }
    slots_[slot].payload = payload;
    ++live_;
    if (live_ > high_water_) high_water_ = live_;
    return (static_cast<std::uint64_t>(slot) << 32) | slots_[slot].gen;
  }

  /// Ends an op; returns its payload, or kNone if the id is unknown or
  /// already ended.
  std::uint32_t end(std::uint64_t op_id) noexcept {
    const auto slot = static_cast<std::uint32_t>(op_id >> 32);
    const auto gen = static_cast<std::uint32_t>(op_id);
    if (slot >= slots_.size() || slots_[slot].gen != gen) return kNone;
    const std::uint32_t payload = slots_[slot].payload;
    ++slots_[slot].gen;
    slots_[slot].next_free = free_head_;
    free_head_ = slot;
    --live_;
    return payload;
  }

  /// Leaves the slab exactly as `n` begin(payload)/end pairs in a row
  /// would, in O(1): one slot cycles through the free list, its generation
  /// advances by n, and the high-water mark rises as by one begin.
  void note_ops(std::uint64_t n, std::uint32_t payload) {
    if (n == 0) return;
    const std::uint64_t id = begin(payload);
    end(id);
    slots_[id >> 32].gen += static_cast<std::uint32_t>(n - 1);
  }

  [[nodiscard]] std::size_t active() const noexcept { return live_; }

  /// Most ops ever live at once (observability high-water mark).
  [[nodiscard]] std::size_t high_water() const noexcept { return high_water_; }

  static constexpr std::uint32_t kNone = 0xffffffffu;

 private:
  struct Slot {
    std::uint32_t gen = 1;
    std::uint32_t payload = 0;
    std::uint32_t next_free = kNone;
  };
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNone;
  std::size_t live_ = 0;
  std::size_t high_water_ = 0;
};

/// Frozen mutable state of a backend: the in-flight op slab plus, for
/// devices that track it, the per-server load vector. Calibration curves,
/// noise configuration, and the RNG binding are construction-time state
/// and deliberately excluded — a snapshot restores into the same backend
/// instance (queued engine events hold raw backend pointers).
struct BackendState {
  OpSlab ops;
  std::vector<std::size_t> per_server_active;
};

/// A checkpoint storage device as seen by the simulator.
class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  [[nodiscard]] virtual DeviceKind kind() const noexcept = 0;

  /// Contention-free price of a `mem_mb` checkpoint on this device.
  [[nodiscard]] virtual CheckpointPrice base_price(double mem_mb) const = 0;

  /// Starts a checkpoint whose base price the caller already computed (via
  /// base_price(), typically cached per task).
  virtual CheckpointTicket begin_priced(const CheckpointPrice& base,
                                        std::size_t host_id) = 0;

  /// Starts a checkpoint of `mem_mb` megabytes originating from `host_id`.
  CheckpointTicket begin_checkpoint(double mem_mb, std::size_t host_id) {
    return begin_priced(base_price(mem_mb), host_id);
  }

  /// Marks the op as finished; its server slot is released. Unknown ids are
  /// ignored (idempotent).
  virtual void end_checkpoint(std::uint64_t op_id) = 0;

  /// True when finishing an op can change the price of a later one
  /// (contention-priced devices). When false, callers need not deliver
  /// end_checkpoint at its exact simulated completion time.
  [[nodiscard]] virtual bool completion_affects_pricing() const noexcept {
    return true;
  }

  /// True when begin_priced is a pure function of its arguments: no
  /// contention state and no RNG draws (so completion never affects pricing
  /// either). A replay may then price future ops on this device ahead of
  /// simulated time (checkpoint-run compression) without reordering
  /// anything observable.
  [[nodiscard]] virtual bool begin_is_pure() const noexcept { return false; }

  /// Books `n` ops from `host_id` that began and ended back to back,
  /// leaving the op bookkeeping exactly as `n` begin_priced/end_checkpoint
  /// pairs would. On a pure device every op of a checkpoint run prices the
  /// same, so the replay prices the run's first op and hands the rest to
  /// this one call. Devices whose ops contend throw std::logic_error.
  virtual void note_ops(std::uint64_t n, std::size_t host_id);

  /// Cost of restarting a `mem_mb` task from this device's checkpoints.
  [[nodiscard]] virtual double restart_cost(double mem_mb) const;

  /// Number of checkpoint ops currently in flight (across all servers).
  [[nodiscard]] virtual std::size_t active_ops() const noexcept = 0;

  /// Most ops ever in flight at once (observability high-water mark).
  [[nodiscard]] virtual std::size_t ops_high_water() const noexcept = 0;

  /// Copies the device's mutable state into `out` (simulation snapshots).
  virtual void capture_state(BackendState& out) const = 0;

  /// Inverse of capture_state(). Must be called on the same instance the
  /// state was captured from — op ids held by queued events stay valid
  /// because the slab's slot generations are part of the copied state.
  virtual void restore_state(const BackendState& state) = 0;

  /// Migration type implied by this device.
  [[nodiscard]] MigrationType migration_type() const noexcept {
    return migration_for_device(kind());
  }
};

/// Per-VM local ramdisk: cheap writes, no contention, migration type A.
class LocalRamdiskBackend final : public StorageBackend {
 public:
  /// noise = 0 disables the stochastic spread; rng may be null in that case.
  explicit LocalRamdiskBackend(stats::Rng* rng = nullptr,
                               double noise = 0.0);

  [[nodiscard]] DeviceKind kind() const noexcept override {
    return DeviceKind::kLocalRamdisk;
  }
  [[nodiscard]] CheckpointPrice base_price(double mem_mb) const override;
  CheckpointTicket begin_priced(const CheckpointPrice& base,
                                std::size_t host_id) override;
  void end_checkpoint(std::uint64_t op_id) override;
  [[nodiscard]] bool completion_affects_pricing() const noexcept override {
    return false;  // ramdisk writes never contend
  }
  [[nodiscard]] bool begin_is_pure() const noexcept override {
    return noise_ <= 0.0 || rng_ == nullptr;  // no contention; rng only
                                              // when noise is enabled
  }
  void note_ops(std::uint64_t n, std::size_t host_id) override;
  [[nodiscard]] std::size_t active_ops() const noexcept override {
    return ops_.active();
  }
  [[nodiscard]] std::size_t ops_high_water() const noexcept override {
    return ops_.high_water();
  }
  void capture_state(BackendState& out) const override;
  void restore_state(const BackendState& state) override;

 private:
  stats::Rng* rng_;
  double noise_;
  OpSlab ops_;
};

/// Single shared NFS server: writes contend (cost grows ~linearly with the
/// parallel degree), migration type B.
class SharedNfsBackend final : public StorageBackend {
 public:
  explicit SharedNfsBackend(stats::Rng* rng = nullptr, double noise = 0.0,
                            double contention_slope = kNfsContentionSlope);

  [[nodiscard]] DeviceKind kind() const noexcept override {
    return DeviceKind::kSharedNfs;
  }
  [[nodiscard]] CheckpointPrice base_price(double mem_mb) const override;
  CheckpointTicket begin_priced(const CheckpointPrice& base,
                                std::size_t host_id) override;
  void end_checkpoint(std::uint64_t op_id) override;
  [[nodiscard]] std::size_t active_ops() const noexcept override {
    return ops_.active();
  }
  [[nodiscard]] std::size_t ops_high_water() const noexcept override {
    return ops_.high_water();
  }
  void capture_state(BackendState& out) const override;
  void restore_state(const BackendState& state) override;

 private:
  stats::Rng* rng_;
  double noise_;
  LinearContention contention_;
  OpSlab ops_;
};

/// Distributively-managed NFS (the paper's design): every host runs an NFS
/// server and each checkpoint picks a server uniformly at random, so
/// concurrent writers rarely share a server and the cost stays flat.
class DmNfsBackend final : public StorageBackend {
 public:
  /// `n_servers` is the number of hosts, each exporting one NFS share.
  /// DM-NFS requires an rng for server selection.
  DmNfsBackend(std::size_t n_servers, stats::Rng& rng, double noise = 0.0,
               double contention_slope = kNfsContentionSlope);

  [[nodiscard]] DeviceKind kind() const noexcept override {
    return DeviceKind::kDmNfs;
  }
  [[nodiscard]] CheckpointPrice base_price(double mem_mb) const override;
  CheckpointTicket begin_priced(const CheckpointPrice& base,
                                std::size_t host_id) override;
  void end_checkpoint(std::uint64_t op_id) override;
  [[nodiscard]] std::size_t active_ops() const noexcept override {
    return ops_.active();
  }
  [[nodiscard]] std::size_t ops_high_water() const noexcept override {
    return ops_.high_water();
  }

  [[nodiscard]] std::size_t server_count() const noexcept {
    return per_server_active_.size();
  }
  /// Ops currently writing to one server (for contention validation tests).
  [[nodiscard]] std::size_t server_load(std::size_t server) const;
  void capture_state(BackendState& out) const override;
  void restore_state(const BackendState& state) override;

 private:
  stats::Rng& rng_;
  double noise_;
  LinearContention contention_;
  std::vector<std::size_t> per_server_active_;
  OpSlab ops_;  ///< payload = server index
};

/// Factory covering all three devices. For kDmNfs, `n_servers` hosts are
/// assumed; rng must outlive the backend.
std::unique_ptr<StorageBackend> make_backend(DeviceKind kind, stats::Rng& rng,
                                             double noise = 0.0,
                                             std::size_t n_servers = 32);

}  // namespace cloudcr::storage
