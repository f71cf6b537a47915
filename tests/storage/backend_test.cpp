#include "storage/backend.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace cloudcr::storage {
namespace {

TEST(LocalRamdiskBackend, PricesFromCalibrationWithoutNoise) {
  LocalRamdiskBackend b;
  const auto t = b.begin_checkpoint(160.0, 3);
  EXPECT_DOUBLE_EQ(t.cost, 0.632);
  EXPECT_DOUBLE_EQ(t.op_time, t.cost);
  EXPECT_EQ(t.server, 3u);  // data lands on the writing host
  EXPECT_EQ(b.active_ops(), 1u);
  b.end_checkpoint(t.op_id);
  EXPECT_EQ(b.active_ops(), 0u);
}

TEST(LocalRamdiskBackend, NoContentionUnderParallelWriters) {
  LocalRamdiskBackend b;
  std::vector<CheckpointTicket> tickets;
  for (int i = 0; i < 5; ++i) tickets.push_back(b.begin_checkpoint(160.0, 0));
  for (const auto& t : tickets) EXPECT_DOUBLE_EQ(t.cost, 0.632);
}

TEST(LocalRamdiskBackend, EndIsIdempotent) {
  LocalRamdiskBackend b;
  const auto t = b.begin_checkpoint(10.0, 0);
  b.end_checkpoint(t.op_id);
  b.end_checkpoint(t.op_id);  // no effect
  b.end_checkpoint(9999);     // unknown id ignored
  EXPECT_EQ(b.active_ops(), 0u);
}

TEST(SharedNfsBackend, CostScalesWithParallelDegree) {
  SharedNfsBackend b;
  const auto t1 = b.begin_checkpoint(160.0, 0);
  EXPECT_DOUBLE_EQ(t1.cost, 1.67);
  const auto t2 = b.begin_checkpoint(160.0, 1);
  EXPECT_DOUBLE_EQ(t2.cost, 1.67 * 2.0);  // second concurrent writer
  const auto t3 = b.begin_checkpoint(160.0, 2);
  EXPECT_DOUBLE_EQ(t3.cost, 1.67 * 3.0);
  b.end_checkpoint(t1.op_id);
  b.end_checkpoint(t2.op_id);
  const auto t4 = b.begin_checkpoint(160.0, 3);
  EXPECT_DOUBLE_EQ(t4.cost, 1.67 * 2.0);  // back to two writers
}

TEST(SharedNfsBackend, OpTimeScalesWithContentionToo) {
  SharedNfsBackend b;
  const auto t1 = b.begin_checkpoint(162.0, 0);
  EXPECT_DOUBLE_EQ(t1.op_time, 3.68);
  const auto t2 = b.begin_checkpoint(162.0, 1);
  EXPECT_DOUBLE_EQ(t2.op_time, 3.68 * 2.0);
}

TEST(SharedNfsBackend, RestartUsesMigrationB) {
  SharedNfsBackend b;
  EXPECT_DOUBLE_EQ(b.restart_cost(160.0), 1.45);
}

TEST(LocalRamdiskBackend, RestartUsesMigrationA) {
  LocalRamdiskBackend b;
  EXPECT_DOUBLE_EQ(b.restart_cost(160.0), 3.22);
}

TEST(DmNfsBackend, RequiresServers) {
  stats::Rng rng(1);
  EXPECT_THROW(DmNfsBackend(0, rng), std::invalid_argument);
}

TEST(DmNfsBackend, SpreadsLoadAcrossServers) {
  stats::Rng rng(2);
  DmNfsBackend b(32, rng);
  std::vector<CheckpointTicket> tickets;
  for (int i = 0; i < 5; ++i) tickets.push_back(b.begin_checkpoint(160.0, 0));
  // With 32 servers and 5 writers, the expected max per-server load is ~1;
  // at minimum the total across servers must equal the ops in flight.
  std::size_t total = 0;
  for (std::size_t s = 0; s < b.server_count(); ++s) total += b.server_load(s);
  EXPECT_EQ(total, 5u);
  EXPECT_EQ(b.active_ops(), 5u);
}

TEST(DmNfsBackend, CollisionFreeWritersPriceAsSingle) {
  stats::Rng rng(3);
  DmNfsBackend b(1000, rng);  // collisions essentially impossible
  for (int i = 0; i < 5; ++i) {
    const auto t = b.begin_checkpoint(160.0, 0);
    EXPECT_DOUBLE_EQ(t.cost, 1.67);
  }
}

TEST(DmNfsBackend, SameServerWritersContend) {
  stats::Rng rng(4);
  DmNfsBackend b(1, rng);  // force every write onto one server
  const auto t1 = b.begin_checkpoint(160.0, 0);
  const auto t2 = b.begin_checkpoint(160.0, 0);
  EXPECT_DOUBLE_EQ(t1.cost, 1.67);
  EXPECT_DOUBLE_EQ(t2.cost, 1.67 * 2.0);
}

TEST(DmNfsBackend, EndReleasesTheRightServer) {
  stats::Rng rng(5);
  DmNfsBackend b(4, rng);
  const auto t = b.begin_checkpoint(160.0, 0);
  EXPECT_EQ(b.server_load(t.server), 1u);
  b.end_checkpoint(t.op_id);
  EXPECT_EQ(b.server_load(t.server), 0u);
  EXPECT_EQ(b.active_ops(), 0u);
}

TEST(Backend, NoiseStaysWithinConfiguredBand) {
  stats::Rng rng(6);
  LocalRamdiskBackend b(&rng, 0.10);
  for (int i = 0; i < 1000; ++i) {
    const auto t = b.begin_checkpoint(160.0, 0);
    EXPECT_GE(t.cost, 0.632 * 0.9 - 1e-12);
    EXPECT_LE(t.cost, 0.632 * 1.1 + 1e-12);
    b.end_checkpoint(t.op_id);
  }
}

TEST(Backend, FactoryProducesRequestedKinds) {
  stats::Rng rng(7);
  EXPECT_EQ(make_backend(DeviceKind::kLocalRamdisk, rng)->kind(),
            DeviceKind::kLocalRamdisk);
  EXPECT_EQ(make_backend(DeviceKind::kSharedNfs, rng)->kind(),
            DeviceKind::kSharedNfs);
  EXPECT_EQ(make_backend(DeviceKind::kDmNfs, rng)->kind(),
            DeviceKind::kDmNfs);
}

TEST(Backend, MigrationTypeDerivedFromKind) {
  stats::Rng rng(8);
  EXPECT_EQ(make_backend(DeviceKind::kLocalRamdisk, rng)->migration_type(),
            MigrationType::kA);
  EXPECT_EQ(make_backend(DeviceKind::kDmNfs, rng)->migration_type(),
            MigrationType::kB);
}

TEST(OpSlab, NoteOpsEqualsBeginEndPairs) {
  // note_ops(n) must leave the slab exactly as n begin/end pairs in a row:
  // observed through the live count, the high-water mark, the ids the next
  // begins hand out, and the ids of ops that were live before.
  struct Setup {
    const char* name;
    OpSlab slab;
    std::vector<std::uint64_t> live;
  };
  std::vector<Setup> setups;
  setups.push_back({"empty", {}, {}});
  {
    // Three live ops and a two-slot free list (slots ended out of order).
    Setup busy{"busy", {}, {}};
    std::vector<std::uint64_t> ids;
    for (std::uint32_t i = 0; i < 5; ++i) ids.push_back(busy.slab.begin(i));
    busy.slab.end(ids[3]);
    busy.slab.end(ids[1]);
    busy.live = {ids[0], ids[2], ids[4]};
    setups.push_back(busy);
  }
  for (const Setup& setup : setups) {
    for (const std::uint64_t n : {0ull, 1ull, 1000ull}) {
      SCOPED_TRACE(std::string(setup.name) + " n=" + std::to_string(n));
      OpSlab pairs = setup.slab;
      for (std::uint64_t i = 0; i < n; ++i) pairs.end(pairs.begin(7));
      OpSlab bulk = setup.slab;
      bulk.note_ops(n, 7);

      EXPECT_EQ(bulk.active(), pairs.active());
      EXPECT_EQ(bulk.high_water(), pairs.high_water());
      const std::uint64_t next_bulk = bulk.begin(8);
      const std::uint64_t next_pairs = pairs.begin(8);
      EXPECT_EQ(next_bulk, next_pairs);
      EXPECT_EQ(bulk.begin(9), pairs.begin(9));  // the free list behind it
      EXPECT_EQ(bulk.high_water(), pairs.high_water());
      for (const std::uint64_t id : setup.live) {
        EXPECT_EQ(bulk.end(id), pairs.end(id));
      }
      EXPECT_EQ(bulk.end(next_bulk), pairs.end(next_pairs));
      EXPECT_EQ(bulk.active(), pairs.active());
    }
  }
}

TEST(Backend, NoteOpsOnlyOnTheLocalRamdisk) {
  // The local ramdisk books n ops like n begin/end pairs; devices whose
  // ops contend refuse bulk booking.
  LocalRamdiskBackend bulk;
  LocalRamdiskBackend pairs;
  bulk.note_ops(25, 3);
  for (int i = 0; i < 25; ++i) {
    pairs.end_checkpoint(pairs.begin_checkpoint(160.0, 3).op_id);
  }
  EXPECT_EQ(bulk.active_ops(), 0u);
  EXPECT_EQ(bulk.ops_high_water(), pairs.ops_high_water());
  EXPECT_EQ(bulk.begin_checkpoint(160.0, 3).op_id,
            pairs.begin_checkpoint(160.0, 3).op_id);

  stats::Rng rng(5);
  SharedNfsBackend nfs;
  EXPECT_THROW(nfs.note_ops(2, 0), std::logic_error);
  DmNfsBackend dm(4, rng);
  EXPECT_THROW(dm.note_ops(2, 0), std::logic_error);
}

}  // namespace
}  // namespace cloudcr::storage
