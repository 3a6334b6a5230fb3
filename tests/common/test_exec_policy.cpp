// ExecPolicy: chunking math, deterministic fixed-order reduction, and the
// bitwise Serial-vs-Pool guarantee of every consumer that routes through
// the policy layer (multiply, characterise_multiplier, project_batch).
#include "common/exec_policy.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <string>

#include "charlib/sweep.hpp"
#include "common/rng.hpp"
#include "core/circuit_eval.hpp"
#include "core/design.hpp"
#include "fabric/calibration.hpp"
#include "linalg/matrix.hpp"

namespace oclp {
namespace {

TEST(ExecPolicy, SerialAutoIsOneChunk) {
  const auto p = ExecPolicy::serial();
  EXPECT_EQ(p.kind(), ExecKind::Serial);
  EXPECT_EQ(p.workers(), 1u);
  EXPECT_EQ(p.num_chunks(1000), 1u);
  EXPECT_EQ(p.chunk_size_for(1000), 1000u);
  EXPECT_EQ(p.num_chunks(0), 0u);
}

TEST(ExecPolicy, PooledAutoMakesAFewChunksPerWorker) {
  const ExecPolicy p;  // default = pooled on the global pool
  EXPECT_EQ(p.kind(), ExecKind::Pool);
  const std::size_t w = p.workers();
  ASSERT_GE(w, 1u);
  const std::size_t n = 10000;
  // ceil(n / (w * chunks_per_worker)) chunks of equal size (last ragged).
  const std::size_t size = p.chunk_size_for(n);
  EXPECT_EQ(size, (n + w * 4 - 1) / (w * 4));
  EXPECT_EQ(p.num_chunks(n), (n + size - 1) / size);
  // min_chunk floors the automatic size.
  const auto floored = ExecPolicy::pooled(nullptr, ExecChunking{0, 4, 500});
  EXPECT_GE(floored.chunk_size_for(n), 500u);
}

TEST(ExecPolicy, ExplicitChunkSizeIsHonouredByBothKinds) {
  for (const auto& p : {ExecPolicy::serial(ExecChunking{7}),
                        ExecPolicy::pooled(nullptr, ExecChunking{7})}) {
    EXPECT_EQ(p.chunk_size_for(100), 7u);
    EXPECT_EQ(p.num_chunks(100), 15u);  // ceil(100/7)
  }
}

TEST(ExecPolicy, ForChunksTilesTheRangeExactly) {
  for (const auto& p : {ExecPolicy::serial(ExecChunking{5}),
                        ExecPolicy::pooled(nullptr, ExecChunking{5}),
                        ExecPolicy::pinned(ExecChunking{5}),
                        ExecPolicy(), ExecPolicy::serial(),
                        ExecPolicy::pinned()}) {
    std::mutex mu;
    std::vector<std::uint8_t> seen(143, 0);
    std::set<std::size_t> chunks;
    p.for_chunks(10, 143, [&](std::size_t c0, std::size_t c1,
                              std::size_t chunk) {
      std::lock_guard lock(mu);
      ASSERT_LT(c0, c1);
      for (std::size_t i = c0; i < c1; ++i) {
        ASSERT_EQ(seen[i], 0u) << "index covered twice";
        seen[i] = 1;
      }
      ASSERT_TRUE(chunks.insert(chunk).second) << "chunk index repeated";
    });
    for (std::size_t i = 0; i < seen.size(); ++i)
      EXPECT_EQ(seen[i], i >= 10 ? 1 : 0) << "index " << i;
    // Chunk indices are 0..num_chunks-1 (ascending, gap-free).
    EXPECT_EQ(chunks.size(), p.num_chunks(133));
    EXPECT_EQ(*chunks.rbegin() + 1, chunks.size());
  }
  // Empty and inverted ranges are no-ops.
  ExecPolicy().for_chunks(5, 5, [](std::size_t, std::size_t, std::size_t) {
    FAIL() << "empty range must not invoke the body";
  });
}

TEST(ExecPolicy, ForEachVisitsEveryIndexOnce) {
  const std::size_t n = 1000;
  for (const auto& p : {ExecPolicy::serial(), ExecPolicy()}) {
    std::vector<std::atomic<int>> visits(n);
    p.for_each(0, n, [&](std::size_t i) { ++visits[i]; });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1);
  }
}

TEST(ExecPolicy, ReduceCombinesInAscendingChunkOrder) {
  // String concatenation is maximally order-sensitive: any reordering of
  // the per-chunk partials changes the result.
  const auto run = [](const ExecPolicy& p) {
    return p.reduce<std::string>(
        0, 26,
        std::string{},
        [](std::size_t c0, std::size_t c1) {
          std::string s;
          for (std::size_t i = c0; i < c1; ++i)
            s.push_back(static_cast<char>('a' + i));
          return s;
        },
        [](std::string acc, std::string part) { return acc + part; });
  };
  const std::string want = "abcdefghijklmnopqrstuvwxyz";
  EXPECT_EQ(run(ExecPolicy::serial()), want);
  EXPECT_EQ(run(ExecPolicy::serial(ExecChunking{3})), want);
  EXPECT_EQ(run(ExecPolicy()), want);
  EXPECT_EQ(run(ExecPolicy::pooled(nullptr, ExecChunking{1})), want);
  EXPECT_EQ(run(ExecPolicy::pooled(nullptr, ExecChunking{5})), want);
}

TEST(ExecPolicy, PinnedRunsChunksOnTheScheduledWorkers) {
  // The static cyclic schedule that makes chunk-keyed workspaces
  // NUMA-local: chunk c must execute on worker chunk_worker(c) = c % W of
  // the pinned pool, every time.
  const auto p = ExecPolicy::pinned(ExecChunking{4});
  EXPECT_TRUE(p.is_pinned());
  EXPECT_FALSE(ExecPolicy().is_pinned());
  EXPECT_FALSE(ExecPolicy::serial().is_pinned());
  ThreadPool& pool = p.pool();
  EXPECT_TRUE(pool.pinned());
  EXPECT_EQ(&pool, &ThreadPool::pinned_global());

  const std::size_t n = pool.size() * 8 + 5;
  const std::size_t chunks = p.num_chunks(n);
  std::vector<int> ran_on(chunks, -2);
  for (int repeat = 0; repeat < 3; ++repeat) {
    p.for_chunks(0, n, [&](std::size_t, std::size_t, std::size_t chunk) {
      ran_on[chunk] = pool.current_worker_index();
    });
    for (std::size_t c = 0; c < chunks; ++c) {
      ASSERT_EQ(ran_on[c], static_cast<int>(p.chunk_worker(c)))
          << "chunk " << c << " repeat " << repeat;
      ASSERT_EQ(p.chunk_node(c), pool.worker_node(p.chunk_worker(c)));
    }
  }
  // Serial policies nominally place everything on worker/node 0.
  EXPECT_EQ(ExecPolicy::serial().chunk_worker(7), 0u);
  EXPECT_EQ(ExecPolicy::serial().chunk_node(7), 0);
}

TEST(ExecPolicy, PinnedMatchesSerialTilingAndResults) {
  // Same explicit chunk size ⇒ identical chunk index → range mapping
  // across Serial / Pool / pinned, which is what lets consumers key
  // workspaces on the chunk index under any policy.
  for (std::size_t chunk_size : {std::size_t{1}, std::size_t{7}}) {
    std::vector<std::vector<std::size_t>> tilings;
    for (const auto& p :
         {ExecPolicy::serial(ExecChunking{chunk_size}),
          ExecPolicy::pooled(nullptr, ExecChunking{chunk_size}),
          ExecPolicy::pinned(ExecChunking{chunk_size})}) {
      std::mutex mu;
      std::vector<std::size_t> tiling(3 * p.num_chunks(100));
      p.for_chunks(0, 100, [&](std::size_t c0, std::size_t c1,
                               std::size_t chunk) {
        std::lock_guard lock(mu);
        tiling[3 * chunk] = c0;
        tiling[3 * chunk + 1] = c1;
        tiling[3 * chunk + 2] = chunk;
      });
      tilings.push_back(std::move(tiling));
    }
    EXPECT_EQ(tilings[0], tilings[1]);
    EXPECT_EQ(tilings[0], tilings[2]);
  }
}

TEST(ExecPolicy, ChunkArenaKeepsSlotAddressesStable) {
  ChunkArena<std::vector<int>> arena;
  arena.ensure(3);
  std::vector<int>* first = &arena.at(0);
  arena.at(0).assign(100, 7);
  arena.ensure(64);  // growth must not move existing slots
  EXPECT_EQ(&arena.at(0), first);
  EXPECT_EQ(arena.at(0).size(), 100u);
  EXPECT_EQ(arena.size(), 64u);
  arena.ensure(2);  // never shrinks
  EXPECT_EQ(arena.size(), 64u);
}

TEST(ExecPolicy, NestedPooledUseRunsInlineWithoutDeadlock) {
  // A pooled policy invoked from inside a worker of the same pool must run
  // inline (ThreadPool::parallel_for's nested rule) — saturating the pool
  // with outer tasks that each fan out again must still terminate.
  const std::size_t outer = ThreadPool::global().size() * 4 + 3;
  std::vector<std::size_t> sums(outer, 0);
  ExecPolicy{}.for_each(0, outer, [&](std::size_t o) {
    std::size_t s = 0;
    ExecPolicy{}.for_each(0, 100, [&](std::size_t i) { s += i; });
    sums[o] = s;
  });
  for (std::size_t o = 0; o < outer; ++o) EXPECT_EQ(sums[o], 4950u);

  // Same property for pinned policies: a directed schedule issued from
  // inside a pinned worker degrades to inline execution instead of
  // waiting on directed queues only blocked workers could drain.
  const auto pinned = ExecPolicy::pinned(ExecChunking{1});
  const std::size_t pouter = pinned.pool().size() * 4 + 3;
  std::vector<std::size_t> psums(pouter, 0);
  pinned.for_each(0, pouter, [&](std::size_t o) {
    std::size_t s = 0;
    pinned.for_each(0, 100, [&](std::size_t i) { s += i; });
    psums[o] = s;
  });
  for (std::size_t o = 0; o < pouter; ++o) EXPECT_EQ(psums[o], 4950u);
}

TEST(ExecPolicy, MultiplyIsBitwiseIdenticalAcrossPolicies) {
  Rng rng(17);
  Matrix a(37, 19), b(19, 23);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.normal(0, 1);
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.normal(0, 1);
  const Matrix ref = multiply(a, b, ExecPolicy::serial());
  for (const auto& p : {ExecPolicy(), ExecPolicy::pooled(nullptr, ExecChunking{1}),
                        ExecPolicy::pooled(nullptr, ExecChunking{3}),
                        ExecPolicy::serial(ExecChunking{16})}) {
    const Matrix got = multiply(a, b, p);
    ASSERT_TRUE(got.same_shape(ref));
    for (std::size_t i = 0; i < ref.size(); ++i)
      ASSERT_EQ(got.data()[i], ref.data()[i]) << "entry " << i;
  }
}

TEST(ExecPolicy, SweepIsBitwiseIdenticalSerialVsPool) {
  Device device(reference_device_config(), kReferenceDieSeed);
  device.set_temperature(kCharacterisationTempC);
  SweepSettings ss;
  ss.locations = {reference_location_1()};
  ss.samples_per_point = 120;
  ss.freqs_mhz = {250.0, 400.0};
  const MultConfig cfg{MultArch::Array, 4, 1};
  const auto serial =
      characterise_multiplier(device, cfg, 4, ss, ExecPolicy::serial());
  const auto pooled = characterise_multiplier(device, cfg, 4, ss, ExecPolicy{});
  const auto pinned =
      characterise_multiplier(device, cfg, 4, ss, ExecPolicy::pinned());
  for (std::uint32_t m = 0; m < 16; ++m)
    for (double f : ss.freqs_mhz) {
      ASSERT_EQ(serial.variance(m, f), pooled.variance(m, f));
      ASSERT_EQ(serial.mean_error(m, f), pooled.mean_error(m, f));
      ASSERT_EQ(serial.error_rate(m, f), pooled.error_rate(m, f));
      ASSERT_EQ(serial.variance(m, f), pinned.variance(m, f));
      ASSERT_EQ(serial.mean_error(m, f), pinned.mean_error(m, f));
      ASSERT_EQ(serial.error_rate(m, f), pinned.error_rate(m, f));
    }
}

TEST(ExecPolicy, ErrorRateCurveIsBitwiseIdenticalSerialVsPool) {
  Device device(reference_device_config(), kReferenceDieSeed);
  device.set_temperature(kCharacterisationTempC);
  const std::vector<double> freqs{200.0, 350.0, 450.0};
  const auto serial = error_rate_curve(device, 5, 5, reference_location_1(),
                                       freqs, 300, 7, ExecPolicy::serial());
  const auto pooled = error_rate_curve(device, 5, 5, reference_location_1(),
                                       freqs, 300, 7, ExecPolicy{});
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].error_rate, pooled[i].error_rate);
    ASSERT_EQ(serial[i].error_variance, pooled[i].error_variance);
  }
}

TEST(ExecPolicy, ProjectBatchIsBitwiseIdenticalAcrossChunkSizes) {
  Device device(reference_device_config(), kReferenceDieSeed);
  device.set_temperature(kCharacterisationTempC);
  LinearProjectionDesign design;
  const MultConfig cfg{MultArch::Array, 5, 1};
  design.columns.push_back(make_column({0.75, -0.5, 0.25, 0.125}, cfg));
  design.columns.push_back(make_column({-0.25, 0.625, -0.75, 0.5}, cfg));
  design.target_freq_mhz = 330.0;
  const int wl_x = 6;
  const auto plan = simulated_plan(design, reference_location_1());

  Rng rng(29);
  std::vector<std::vector<std::uint32_t>> requests(70);
  for (auto& r : requests) {
    r.resize(design.dims_p());
    for (auto& c : r)
      c = static_cast<std::uint32_t>(rng.uniform_u64(1u << wl_x));
  }
  std::vector<const std::vector<std::uint32_t>*> batch;
  for (const auto& r : requests) batch.push_back(&r);

  std::vector<std::vector<double>> ref_ys;
  {
    ProjectionCircuit circuit(design, device, plan, wl_x, nullptr, 42);
    circuit.set_exec_policy(ExecPolicy::serial());
    circuit.project_batch(batch, ref_ys);
  }
  for (std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{16}}) {
    for (const bool pin : {false, true}) {
      ProjectionCircuit circuit(design, device, plan, wl_x, nullptr, 42);
      circuit.set_exec_policy(pin
                                  ? ExecPolicy::pinned(ExecChunking{chunk})
                                  : ExecPolicy::pooled(nullptr,
                                                       ExecChunking{chunk}));
      std::vector<std::vector<double>> ys;
      circuit.project_batch(batch, ys);
      ASSERT_EQ(ys.size(), ref_ys.size());
      for (std::size_t s = 0; s < ys.size(); ++s)
        ASSERT_EQ(ys[s], ref_ys[s])
            << "chunk size " << chunk << (pin ? " pinned" : "") << " sample "
            << s;
    }
  }
}

}  // namespace
}  // namespace oclp
