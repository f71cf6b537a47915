#include "storage/backend.hpp"

#include <stdexcept>

namespace cloudcr::storage {

namespace {

double apply_noise(double value, stats::Rng* rng, double noise) {
  if (noise <= 0.0 || rng == nullptr) return value;
  return value * rng->uniform(1.0 - noise, 1.0 + noise);
}

}  // namespace

double StorageBackend::restart_cost(double mem_mb) const {
  return storage::restart_cost(kind(), mem_mb);
}

void StorageBackend::note_ops(std::uint64_t /*n*/, std::size_t /*host_id*/) {
  throw std::logic_error("StorageBackend::note_ops: ops on this device "
                         "contend, so they cannot be booked in bulk");
}

// --------------------------------------------------------- LocalRamdiskBackend

LocalRamdiskBackend::LocalRamdiskBackend(stats::Rng* rng, double noise)
    : rng_(rng), noise_(noise) {}

CheckpointPrice LocalRamdiskBackend::base_price(double mem_mb) const {
  const double cost = checkpoint_cost(DeviceKind::kLocalRamdisk, mem_mb);
  return {cost, cost};  // ramdisk writes are synchronous memory copies
}

CheckpointTicket LocalRamdiskBackend::begin_priced(const CheckpointPrice& base,
                                                   std::size_t host_id) {
  CheckpointTicket t;
  t.cost = apply_noise(base.cost_s, rng_, noise_);
  t.op_time = t.cost;
  t.server = host_id;  // data lands on the writing host itself
  t.op_id = ops_.begin(static_cast<std::uint32_t>(host_id));
  return t;
}

void LocalRamdiskBackend::end_checkpoint(std::uint64_t op_id) {
  ops_.end(op_id);
}

void LocalRamdiskBackend::note_ops(std::uint64_t n, std::size_t host_id) {
  ops_.note_ops(n, static_cast<std::uint32_t>(host_id));
}

void LocalRamdiskBackend::capture_state(BackendState& out) const {
  out.ops = ops_;
  out.per_server_active.clear();
}

void LocalRamdiskBackend::restore_state(const BackendState& state) {
  ops_ = state.ops;
}

// ------------------------------------------------------------ SharedNfsBackend

SharedNfsBackend::SharedNfsBackend(stats::Rng* rng, double noise,
                                   double contention_slope)
    : rng_(rng), noise_(noise), contention_(contention_slope) {}

CheckpointPrice SharedNfsBackend::base_price(double mem_mb) const {
  return {checkpoint_cost(DeviceKind::kSharedNfs, mem_mb),
          checkpoint_op_time(DeviceKind::kSharedNfs, mem_mb)};
}

CheckpointTicket SharedNfsBackend::begin_priced(const CheckpointPrice& base,
                                                std::size_t host_id) {
  CheckpointTicket t;
  const std::size_t writers = ops_.active() + 1;  // including this op
  const double mult = contention_.multiplier(writers);
  t.cost = apply_noise(base.cost_s * mult, rng_, noise_);
  t.op_time = apply_noise(base.op_time_s * mult, rng_, noise_);
  t.server = 0;  // single server
  t.op_id = ops_.begin(static_cast<std::uint32_t>(host_id));
  return t;
}

void SharedNfsBackend::end_checkpoint(std::uint64_t op_id) {
  ops_.end(op_id);
}

void SharedNfsBackend::capture_state(BackendState& out) const {
  out.ops = ops_;
  out.per_server_active.clear();
}

void SharedNfsBackend::restore_state(const BackendState& state) {
  ops_ = state.ops;
}

// ---------------------------------------------------------------- DmNfsBackend

DmNfsBackend::DmNfsBackend(std::size_t n_servers, stats::Rng& rng,
                           double noise, double contention_slope)
    : rng_(rng),
      noise_(noise),
      contention_(contention_slope),
      per_server_active_(n_servers, 0) {
  if (n_servers == 0) {
    throw std::invalid_argument("DmNfsBackend: needs at least one server");
  }
}

CheckpointPrice DmNfsBackend::base_price(double mem_mb) const {
  // DM-NFS is an NFS server per host, so single-writer pricing matches NFS.
  return {checkpoint_cost(DeviceKind::kSharedNfs, mem_mb),
          checkpoint_op_time(DeviceKind::kSharedNfs, mem_mb)};
}

CheckpointTicket DmNfsBackend::begin_priced(const CheckpointPrice& base,
                                            std::size_t /*host_id*/) {
  CheckpointTicket t;
  t.server = rng_.uniform_index(per_server_active_.size());
  const std::size_t writers = per_server_active_[t.server] + 1;
  const double mult = contention_.multiplier(writers);
  t.cost = apply_noise(base.cost_s * mult, &rng_, noise_);
  t.op_time = apply_noise(base.op_time_s * mult, &rng_, noise_);
  ++per_server_active_[t.server];
  t.op_id = ops_.begin(static_cast<std::uint32_t>(t.server));
  return t;
}

void DmNfsBackend::end_checkpoint(std::uint64_t op_id) {
  const std::uint32_t server = ops_.end(op_id);
  if (server == OpSlab::kNone) return;
  if (per_server_active_[server] > 0) --per_server_active_[server];
}

std::size_t DmNfsBackend::server_load(std::size_t server) const {
  return per_server_active_.at(server);
}

void DmNfsBackend::capture_state(BackendState& out) const {
  out.ops = ops_;
  out.per_server_active = per_server_active_;
}

void DmNfsBackend::restore_state(const BackendState& state) {
  ops_ = state.ops;
  per_server_active_ = state.per_server_active;
}

std::unique_ptr<StorageBackend> make_backend(DeviceKind kind, stats::Rng& rng,
                                             double noise,
                                             std::size_t n_servers) {
  switch (kind) {
    case DeviceKind::kLocalRamdisk:
      return std::make_unique<LocalRamdiskBackend>(&rng, noise);
    case DeviceKind::kSharedNfs:
      return std::make_unique<SharedNfsBackend>(&rng, noise);
    case DeviceKind::kDmNfs:
      return std::make_unique<DmNfsBackend>(n_servers, rng, noise);
  }
  throw std::invalid_argument("make_backend: unknown device kind");
}

}  // namespace cloudcr::storage
