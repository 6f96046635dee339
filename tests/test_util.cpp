// Unit tests for choreo_util: strings, RNG, statistics, thread pool,
// segmented vector, slot array, bump arena, the split counting sort, the
// memory retained across jobs, tables.
#include <gtest/gtest.h>
#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <limits>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "format_double_oracle.hpp"
#include "util/bump_arena.hpp"
#include "util/counting_sort.hpp"
#include "util/error.hpp"
#include "util/retained_memory.hpp"
#include "util/rng.hpp"
#include "util/segmented_vector.hpp"
#include "util/slot_array.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace cu = choreo::util;

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = cu::split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitWsDropsEmptyFields) {
  const auto parts = cu::split_ws("  alpha \t beta\ngamma  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "alpha");
  EXPECT_EQ(parts[1], "beta");
  EXPECT_EQ(parts[2], "gamma");
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(cu::trim("  x y  "), "x y");
  EXPECT_EQ(cu::trim("\t\n"), "");
  EXPECT_EQ(cu::trim(""), "");
}

TEST(Strings, Join) {
  EXPECT_EQ(cu::join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(cu::join({}, ","), "");
  EXPECT_EQ(cu::join({"only"}, ","), "only");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(cu::starts_with("UML:Model", "UML:"));
  EXPECT_FALSE(cu::starts_with("UML", "UML:"));
  EXPECT_TRUE(cu::ends_with("file.xmi", ".xmi"));
  EXPECT_FALSE(cu::ends_with("xmi", ".xmi"));
}

TEST(Strings, IsIdentifier) {
  EXPECT_TRUE(cu::is_identifier("openread"));
  EXPECT_TRUE(cu::is_identifier("_x9"));
  EXPECT_FALSE(cu::is_identifier("9x"));
  EXPECT_FALSE(cu::is_identifier(""));
  EXPECT_FALSE(cu::is_identifier("a-b"));
}

TEST(Strings, FormatDoubleRoundTrips) {
  for (double v : {0.5, 2.0, 1e-9, 123456.789, -3.25, 0.1}) {
    const std::string text = cu::format_double(v);
    EXPECT_EQ(std::stod(text), v) << text;
  }
  EXPECT_EQ(cu::format_double(0.0), "0");
  EXPECT_EQ(cu::format_double(2.0), "2");
}

TEST(Strings, FormatDoublePreservesNegativeZero) {
  // Regression: the zero fast path compared with == (under which
  // -0.0 == 0.0) and returned "0", losing the sign.
  EXPECT_EQ(cu::format_double(-0.0), "-0");
  EXPECT_EQ(cu::format_double(0.0), "0");
  EXPECT_TRUE(std::signbit(std::stod(cu::format_double(-0.0))));
}

namespace {

/// Compares format_double with the ladder it replaced on each value it is
/// given, reporting the first few differences.
class LadderCheck {
 public:
  void operator()(double value) {
    ++checked_;
    const std::string expected = choreo::test::format_double_ladder(value);
    const std::string actual = cu::format_double(value);
    if (actual == expected) return;
    if (++differences_ <= 5) {
      ADD_FAILURE() << std::hexfloat << value << ": \"" << actual
                    << "\", the ladder gives \"" << expected << '"';
    }
  }
  std::size_t checked() const { return checked_; }
  std::size_t differences() const { return differences_; }

 private:
  std::size_t checked_ = 0;
  std::size_t differences_ = 0;
};

}  // namespace

// Over a million values across the suites below: seeded random finite bit
// patterns (900,000, every sixteenth forced subnormal), the integers up to
// 10^5, every power of two and of ten in range with both signs, 2,000
// neighbours each side of six decimal fractions, the extremes and every
// number written in models/.
class FormatDoubleBits : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FormatDoubleBits, RandomFinitePatternsMatchTheLadder) {
  cu::Xoshiro256 rng(0x5eed0000 + GetParam());
  LadderCheck check;
  for (std::size_t i = 0; i < 225'000; ++i) {
    std::uint64_t bits = rng.next();
    if (i % 16 == 0) bits &= ~(std::uint64_t{0x7ff} << 52);  // subnormal
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof value);
    if (!std::isfinite(value)) continue;
    check(value);
  }
  EXPECT_GT(check.checked(), 224'000u);
  EXPECT_EQ(check.differences(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Shards, FormatDoubleBits,
                         ::testing::Values(0u, 1u, 2u, 3u));

TEST(FormatDoubleLadder, IntegersUpToTenToTheFifth) {
  LadderCheck check;
  for (int i = 0; i <= 100'000; ++i) check(i);
  EXPECT_EQ(check.differences(), 0u);
}

TEST(FormatDoubleLadder, PowersOfTwoAndTenWithBothSigns) {
  LadderCheck check;
  for (int e = -1074; e <= 1023; ++e) {
    check(std::ldexp(1.0, e));
    check(-std::ldexp(1.0, e));
  }
  for (int e = -323; e <= 308; ++e) {
    const double power = std::strtod(("1e" + std::to_string(e)).c_str(), nullptr);
    check(power);
    check(-power);
  }
  EXPECT_EQ(check.checked(), 2u * (2098 + 632));
  EXPECT_EQ(check.differences(), 0u);
}

TEST(FormatDoubleLadder, NeighboursOfDecimalFractions) {
  LadderCheck check;
  for (const double centre : {0.1, 0.3, 1.0 / 3.0, 9.5, 0.95, 1e23}) {
    check(centre);
    for (const double direction : {-HUGE_VAL, HUGE_VAL}) {
      double value = centre;
      for (int step = 0; step < 2000; ++step) {
        value = std::nextafter(value, direction);
        check(value);
      }
    }
  }
  EXPECT_EQ(check.differences(), 0u);
}

TEST(FormatDoubleLadder, ExtremesAndEveryNumberInTheModels) {
  LadderCheck check;
  using limits = std::numeric_limits<double>;
  for (const double value : {limits::denorm_min(), limits::min(), limits::max(),
                             limits::lowest(), limits::epsilon()}) {
    check(value);
  }
  std::size_t files = 0;
  std::size_t numbers = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(CHOREO_MODELS_DIR)) {
    std::ifstream stream(entry.path(), std::ios::binary);
    const std::string text((std::istreambuf_iterator<char>(stream)),
                           std::istreambuf_iterator<char>());
    ++files;
    // Every number that starts a token: rates, populations, tolerances.
    for (std::size_t i = 0; i < text.size(); ++i) {
      const bool starts = std::isdigit(static_cast<unsigned char>(text[i])) &&
                          (i == 0 || !(std::isalnum(static_cast<unsigned char>(
                                           text[i - 1])) ||
                                       text[i - 1] == '_' || text[i - 1] == '.'));
      if (!starts) continue;
      char* end = nullptr;
      const double value = std::strtod(text.c_str() + i, &end);
      check(value);
      ++numbers;
      i = static_cast<std::size_t>(end - text.c_str()) - 1;
    }
  }
  EXPECT_GT(files, 0u);
  EXPECT_GT(numbers, 0u);
  EXPECT_EQ(check.differences(), 0u);
}

TEST(Error, MsgConcatenatesPieces) {
  EXPECT_EQ(cu::msg("a", 1, 'b', 2.5), "a1b2.5");
}

TEST(Error, ParseErrorCarriesPosition) {
  cu::ParseError error("model.pepa", 3, 14, "boom");
  EXPECT_EQ(error.artefact(), "model.pepa");
  EXPECT_EQ(error.line(), 3u);
  EXPECT_EQ(error.column(), 14u);
  EXPECT_STREQ(error.what(), "model.pepa:3:14: boom");
}

TEST(Rng, DeterministicFromSeed) {
  cu::Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  cu::Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.next() == b.next());
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformInUnitInterval) {
  cu::Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ExponentialMeanMatchesRate) {
  cu::Xoshiro256 rng(11);
  const double rate = 4.0;
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(rate);
  EXPECT_NEAR(sum / n, 1.0 / rate, 0.01);
}

TEST(Rng, BelowIsUnbiasedAcrossSmallBound) {
  cu::Xoshiro256 rng(13);
  int counts[5] = {0};
  const int n = 100000;
  for (int i = 0; i < n; ++i) counts[rng.below(5)]++;
  for (int c : counts) EXPECT_NEAR(c, n / 5.0, n * 0.01);
}

TEST(Rng, DiscreteFollowsWeights) {
  cu::Xoshiro256 rng(17);
  const double weights[] = {1.0, 3.0, 6.0};
  int counts[3] = {0};
  const int n = 100000;
  for (int i = 0; i < n; ++i) counts[rng.discrete(weights)]++;
  EXPECT_NEAR(counts[0] / double(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / double(n), 0.3, 0.015);
  EXPECT_NEAR(counts[2] / double(n), 0.6, 0.015);
}

TEST(Rng, JumpYieldsDisjointStream) {
  cu::Xoshiro256 a(42);
  cu::Xoshiro256 b(42);
  b.jump();
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.next() == b.next());
  EXPECT_LT(equal, 4);
}

TEST(Stats, WelfordMeanVariance) {
  cu::RunningStats stats;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(v);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(stats.min(), 2.0);
  EXPECT_EQ(stats.max(), 9.0);
}

TEST(Stats, MergeEqualsSingleStream) {
  cu::RunningStats whole, left, right;
  for (int i = 0; i < 100; ++i) {
    const double v = std::sin(i * 0.37) * 10 + i * 0.01;
    whole.add(v);
    (i < 50 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-10);
}

TEST(Stats, ConfidenceIntervalCoversTrueMean) {
  // 95% CI over 200 repetitions of a small-sample mean should cover the
  // true mean roughly 95% of the time.
  cu::Xoshiro256 rng(23);
  int covered = 0;
  const int reps = 400;
  for (int r = 0; r < reps; ++r) {
    cu::RunningStats stats;
    for (int i = 0; i < 20; ++i) stats.add(rng.exponential(1.0));
    if (cu::confidence_interval(stats, 0.95).contains(1.0)) ++covered;
  }
  EXPECT_GT(covered, reps * 0.90);
  EXPECT_LT(covered, reps * 0.99);
}

TEST(Stats, StudentQuantilesMonotone) {
  EXPECT_GT(cu::student_t_quantile(1, 0.95), cu::student_t_quantile(10, 0.95));
  EXPECT_GT(cu::student_t_quantile(10, 0.99), cu::student_t_quantile(10, 0.95));
  EXPECT_DOUBLE_EQ(cu::student_t_quantile(1000, 0.95), 1.960);
  EXPECT_THROW(cu::student_t_quantile(5, 0.5), cu::Error);
}

TEST(Stats, BatchMeansTracksIidMean) {
  cu::Xoshiro256 rng(29);
  cu::BatchMeans batches(16);
  for (int i = 0; i < 50000; ++i) batches.add(rng.exponential(2.0));
  const auto ci = batches.interval(0.95);
  EXPECT_NEAR(ci.mean, 0.5, 0.02);
  EXPECT_GT(batches.completed_batches(), 4u);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  cu::ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  cu::ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, PropagatesExceptions) {
  cu::ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [](std::size_t begin, std::size_t) {
                          if (begin == 0) throw cu::Error("boom");
                        }),
      cu::Error);
}

TEST(ThreadPool, ZeroWorkerPoolRunsInline) {
  cu::ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0u);  // on every host, not only 1-core ones
  std::vector<int> hits(10, 0);
  pool.parallel_for(10, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i]++;
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 10);
}

TEST(ThreadPool, DefaultPoolLeavesTheCallerOneCore) {
  const cu::ThreadPool pool;
  EXPECT_EQ(pool.worker_count(),
            std::max(1u, std::thread::hardware_concurrency()) - 1);
}

TEST(ThreadPool, SubmitReturnsWaitableResult) {
  cu::ThreadPool pool(2);
  auto doubled = pool.submit([] { return 21 * 2; });
  auto thrown = pool.submit([]() -> int { throw cu::Error("boom"); });
  EXPECT_EQ(doubled.get(), 42);
  EXPECT_THROW(thrown.get(), cu::Error);
}

TEST(ThreadPool, SubmitOnZeroWorkerPoolRunsInline) {
  cu::ThreadPool pool(0);
  auto future = pool.submit([] { return std::this_thread::get_id(); });
  EXPECT_EQ(future.get(), std::this_thread::get_id());
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  {
    cu::ThreadPool pool(1);
    for (int i = 0; i < 32; ++i) {
      futures.push_back(pool.submit([&ran] { ran.fetch_add(1); }));
    }
  }
  EXPECT_EQ(ran.load(), 32);
  for (auto& f : futures) f.get();
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // Regression: the waiter used to sleep on its completion latch while its
  // queued chunks sat behind blocked tasks.  With one worker and two outer
  // lanes, both threads used to reach the inner loops' waits while both
  // inner chunks still sat in the queue — progress requires the waiters to
  // help drain the queue.
  cu::ThreadPool pool(1);
  std::atomic<int> inner_total{0};
  pool.parallel_for(2, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      pool.parallel_for(16, [&](std::size_t b, std::size_t e) {
        inner_total.fetch_add(static_cast<int>(e - b));
      });
    }
  });
  EXPECT_EQ(inner_total.load(), 32);
}

TEST(ThreadPool, NestedParallelForDynamicDoesNotDeadlock) {
  cu::ThreadPool pool(1);
  std::atomic<int> inner_total{0};
  pool.parallel_for_dynamic(4, 1, 0, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      pool.parallel_for_dynamic(8, 2, 0, [&](std::size_t b, std::size_t e) {
        inner_total.fetch_add(static_cast<int>(e - b));
      });
    }
  });
  EXPECT_EQ(inner_total.load(), 32);
}

TEST(ThreadPool, ParallelForDynamicCoversRangeExactlyOnce) {
  cu::ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for_dynamic(1000, 7, 0,
                            [&](std::size_t begin, std::size_t end) {
                              for (std::size_t i = begin; i < end; ++i) {
                                hits[i].fetch_add(1);
                              }
                            });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForDynamicChunksAreGrainSized) {
  cu::ThreadPool pool(2);
  std::mutex mutex;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_for_dynamic(100, 8, 0, [&](std::size_t begin, std::size_t end) {
    std::lock_guard lock(mutex);
    chunks.emplace_back(begin, end);
  });
  ASSERT_EQ(chunks.size(), 13u);  // ceil(100 / 8)
  for (const auto& [begin, end] : chunks) {
    EXPECT_EQ(begin % 8, 0u);  // boundaries depend only on (count, grain)
    EXPECT_EQ(end, std::min<std::size_t>(begin + 8, 100));
  }
}

TEST(ThreadPool, ParallelForDynamicSingleLaneRunsOnCallingThread) {
  cu::ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> hits(10, 0);  // unsynchronised: single-lane must be inline
  // grain > count collapses to one chunk, hence one (inline) lane.
  pool.parallel_for_dynamic(10, 100, 0, [&](std::size_t begin, std::size_t end) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    for (std::size_t i = begin; i < end; ++i) hits[i]++;
  });
  pool.parallel_for_dynamic(10, 2, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i]++;
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 20);
}

TEST(ThreadPool, ParallelForDynamicZeroWorkerPoolRunsInline) {
  cu::ThreadPool pool(0);
  std::vector<int> hits(10, 0);
  pool.parallel_for_dynamic(10, 3, 0, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i]++;
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 10);
}

TEST(ThreadPool, ParallelForDynamicPropagatesExceptions) {
  cu::ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for_dynamic(100, 5, 0,
                                         [](std::size_t begin, std::size_t) {
                                           if (begin == 45) {
                                             throw cu::Error("boom");
                                           }
                                         }),
               cu::Error);
}

namespace {

struct DtorCounted {
  static std::atomic<int> live;
  std::string payload;  // non-trivially-destructible on purpose

  explicit DtorCounted(std::string p) : payload(std::move(p)) {
    live.fetch_add(1);
  }
  DtorCounted(const DtorCounted& other) : payload(other.payload) {
    live.fetch_add(1);
  }
  DtorCounted(DtorCounted&& other) noexcept
      : payload(std::move(other.payload)) {
    live.fetch_add(1);
  }
  ~DtorCounted() { live.fetch_sub(1); }
};

std::atomic<int> DtorCounted::live{0};

}  // namespace

TEST(SegmentedVector, DestroysElementsSpanningASegmentBoundary) {
  // 1524 elements straddle the first segment boundary (segment 0 holds
  // 2^kFirstSegmentLog2 = 1024 elements), so the destructor must run
  // element destructors in two segments — the second only partially full.
  constexpr std::size_t kCount = 1524;
  static_assert(kCount > std::size_t{1}
                             << cu::SegmentedVector<DtorCounted>::kFirstSegmentLog2);
  {
    cu::SegmentedVector<DtorCounted> vec;
    for (std::size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(vec.push_back(DtorCounted(std::to_string(i))), i);
    }
    EXPECT_EQ(vec.size(), kCount);
    EXPECT_EQ(DtorCounted::live.load(), static_cast<int>(kCount));
    EXPECT_EQ(vec[0].payload, "0");
    EXPECT_EQ(vec[1023].payload, "1023");  // last slot of segment 0
    EXPECT_EQ(vec[1024].payload, "1024");  // first slot of segment 1
    EXPECT_EQ(vec[kCount - 1].payload, std::to_string(kCount - 1));
  }
  EXPECT_EQ(DtorCounted::live.load(), 0);
}

TEST(SlotArray, SlotsStartZeroedAndStayPut) {
  cu::SlotArray<std::atomic<std::uint64_t>> slots;
  // Ids on both sides of the first two segment boundaries and well past
  // them (segments are allocated on first touch, in any order).
  const std::uint32_t ids[] = {1'000'000, 0, 1023, 1024, 3071, 3072};
  for (const std::uint32_t id : ids) {
    EXPECT_EQ(slots[id].load(), 0u) << id;
    slots[id].store(id + 1ull);
  }
  for (const std::uint32_t id : ids) {
    EXPECT_EQ(slots[id].load(), id + 1ull) << id;
    EXPECT_EQ(&slots[id], &slots[id]);
  }
  EXPECT_EQ(slots[1022].load(), 0u);
  EXPECT_EQ(slots[1025].load(), 0u);
}

TEST(SlotArray, ConcurrentFirstTouchesShareOneSegment) {
  // Threads race to allocate the same segments; every thread must end up
  // on the published one, so each slot is incremented exactly once per
  // thread.
  constexpr std::size_t kThreads = 6;
  constexpr std::uint32_t kIds = 40'000;
  cu::SlotArray<std::atomic<std::uint32_t>> slots;
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (std::uint32_t id = 0; id < kIds; ++id) slots[id].fetch_add(1);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::uint32_t id = 0; id < kIds; ++id) {
    ASSERT_EQ(slots[id].load(), kThreads) << id;
  }
}

TEST(BumpArena, AllocationsAreAlignedDisjointAndStable) {
  cu::BumpArena arena;
  std::vector<std::pair<unsigned char*, std::size_t>> blocks;
  for (std::size_t i = 0; i < 2000; ++i) {
    const std::size_t bytes = 1 + (i * 37) % 300;
    const std::size_t align = std::size_t{1} << (i % 5);
    auto* block = static_cast<unsigned char*>(arena.allocate(bytes, align));
    ASSERT_EQ(reinterpret_cast<std::uintptr_t>(block) % align, 0u);
    std::fill(block, block + bytes, static_cast<unsigned char>(i));
    blocks.emplace_back(block, bytes);
  }
  // One allocation larger than the largest chunk gets a chunk of its own.
  auto* big = static_cast<unsigned char*>(
      arena.allocate(cu::BumpArena::kMaxChunk * 2, 8));
  std::fill(big, big + cu::BumpArena::kMaxChunk * 2, 0xAB);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const auto [block, bytes] = blocks[i];
    ASSERT_TRUE(std::all_of(block, block + bytes, [&](unsigned char c) {
      return c == static_cast<unsigned char>(i);
    })) << i;
  }
  EXPECT_GE(arena.reserved_bytes(), cu::BumpArena::kMaxChunk * 2);
}

TEST(BumpArena, SmallArenaReservesOneSmallChunk) {
  cu::BumpArena arena;
  arena.allocate(64, 8);
  arena.allocate(64, 8);
  EXPECT_EQ(arena.reserved_bytes(), cu::BumpArena::kFirstChunk);
}

TEST(BumpArena, ConcurrentAllocationsNeverOverlap) {
  // More threads than lanes, so some share the locked overflow lane.
  constexpr std::size_t kThreads = cu::BumpArena::kLanes + 4;
  constexpr std::size_t kPerThread = 3000;
  cu::BumpArena arena;
  std::vector<std::vector<std::uint64_t*>> blocks(kThreads);
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (std::size_t i = 0; i < kPerThread; ++i) {
        auto* block = static_cast<std::uint64_t*>(
            arena.allocate(2 * sizeof(std::uint64_t), alignof(std::uint64_t)));
        block[0] = t;
        block[1] = i;
        blocks[t].push_back(block);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kPerThread; ++i) {
      ASSERT_EQ(blocks[t][i][0], t);
      ASSERT_EQ(blocks[t][i][1], i);
    }
  }
}

namespace {

// Regression scaffold for the ThreadPool::shared() static-destruction
// contract: this object touches shared() while constructing, so the pool is
// older and its destructor (which joins the workers) runs *after* ours.
// Using the pool from here must therefore be safe.  A violation crashes or
// hangs the test binary at exit, which CTest reports as a failure even
// though every TEST already passed.
struct StaticDestructorAdjacentPoolUser {
  StaticDestructorAdjacentPoolUser() { cu::ThreadPool::shared(); }
  ~StaticDestructorAdjacentPoolUser() {
    std::atomic<int> total{0};
    cu::ThreadPool::shared().parallel_for(
        64, [&](std::size_t begin, std::size_t end) {
          total.fetch_add(static_cast<int>(end - begin));
        });
    if (total.load() != 64) std::abort();
    cu::ThreadPool::shared().submit([] {}).get();
  }
};

}  // namespace

TEST(ThreadPool, SharedSurvivesStaticDestructorAdjacentUse) {
  // The object is constructed on first run and destroyed after main();
  // see StaticDestructorAdjacentPoolUser above.
  static StaticDestructorAdjacentPoolUser user;
  (void)user;
  SUCCEED();
}

namespace {

/// A counting sort's result: per-key offsets and the items in sorted order.
struct Sorted {
  std::vector<std::size_t> offsets;
  std::vector<std::size_t> order;
};

/// util::CountingSort of items i by keys[i], over the parts `bounds` cuts.
Sorted split_sort(const std::vector<std::size_t>& keys, std::size_t key_count,
                  std::vector<std::size_t> bounds, const cu::Lanes& lanes) {
  cu::CountingSort<std::size_t> sort(
      key_count, std::move(bounds), lanes,
      [&](std::size_t begin, std::size_t end, std::size_t* counts) {
        for (std::size_t i = begin; i < end; ++i) ++counts[keys[i]];
      });
  Sorted out;
  out.offsets = sort.offsets();
  out.order.assign(keys.size(), keys.size());
  sort.place([&](std::size_t begin, std::size_t end, std::size_t* cursor) {
    for (std::size_t i = begin; i < end; ++i) out.order[cursor[keys[i]]++] = i;
  });
  return out;
}

/// The reference: a serial stable sort of the items by key.
Sorted stable_sorted(const std::vector<std::size_t>& keys,
                     std::size_t key_count) {
  Sorted out;
  out.order.resize(keys.size());
  std::iota(out.order.begin(), out.order.end(), std::size_t{0});
  std::stable_sort(out.order.begin(), out.order.end(),
                   [&](std::size_t a, std::size_t b) { return keys[a] < keys[b]; });
  out.offsets.assign(key_count + 1, 0);
  for (const std::size_t key : keys) ++out.offsets[key + 1];
  std::partial_sum(out.offsets.begin(), out.offsets.end(), out.offsets.begin());
  return out;
}

struct SortCase {
  std::string name;
  std::vector<std::size_t> keys;
  std::size_t key_count;
};

std::vector<SortCase> sort_cases() {
  std::vector<SortCase> cases;
  cases.push_back({"empty input", {}, 7});
  cases.push_back({"no keys", {}, 0});
  cases.push_back({"single key", std::vector<std::size_t>(70'000, 0), 1});
  cases.push_back(
      {"every item under one of many keys", std::vector<std::size_t>(90'000, 17), 64});
  // Odd keys hold no items; enough items that split_parts cuts several
  // parts at every lane count above one.
  cu::Xoshiro256 rng(11);
  SortCase mixed{"many keys, odd ones empty", {}, 257};
  for (std::size_t i = 0; i < 200'000; ++i) {
    mixed.keys.push_back(2 * rng.below(129));
  }
  cases.push_back(std::move(mixed));
  return cases;
}

}  // namespace

TEST(CountingSort, MatchesAStableSortAtEveryLaneCountOnBothPoolShapes) {
  cu::ThreadPool inline_pool(0);
  cu::ThreadPool workers(3);
  for (const SortCase& test : sort_cases()) {
    const Sorted expected = stable_sorted(test.keys, test.key_count);
    const std::size_t n = test.keys.size();
    for (cu::ThreadPool* pool : {&inline_pool, &workers}) {
      for (const std::size_t lanes : {1u, 2u, 3u, 8u}) {
        const cu::Lanes on{pool, lanes};
        const std::string where = test.name + " at " + std::to_string(lanes) +
                                  " lanes, " +
                                  std::to_string(pool->worker_count()) +
                                  " workers";
        // The cut split_parts makes, then `lanes` parts every other one of
        // which holds no items.
        std::vector<std::size_t> sparse{0};
        for (std::size_t p = 1; p < 2 * lanes; ++p) {
          sparse.push_back(p % 2 == 0 ? sparse.back() : n * p / (2 * lanes));
        }
        sparse.push_back(n);
        for (std::vector<std::size_t> bounds :
             {cu::split_parts(n, on), sparse}) {
          const Sorted got =
              split_sort(test.keys, test.key_count, std::move(bounds), on);
          EXPECT_EQ(got.offsets, expected.offsets) << where;
          EXPECT_EQ(got.order, expected.order) << where;
        }
      }
    }
  }
}

TEST(CountingSort, SplitPartsCutsEqualWeightsUpToOnePerLane) {
  // Too light to split, or one lane: one part.
  EXPECT_EQ(cu::split_parts(cu::kMinPartWeight, {nullptr, 8}),
            (std::vector<std::size_t>{0, cu::kMinPartWeight}));
  EXPECT_EQ(cu::split_parts(1'000'000, {nullptr, 1}),
            (std::vector<std::size_t>{0, 1'000'000}));
  EXPECT_EQ(cu::split_parts(0, {nullptr, 4}), (std::vector<std::size_t>{0, 0}));
  // Heavy enough for every lane: equal unit counts.
  EXPECT_EQ(cu::split_parts(400'000, {nullptr, 4}),
            (std::vector<std::size_t>{0, 100'000, 200'000, 300'000, 400'000}));
  // Weighted: unit u weighs u, so the cuts crowd towards the heavy end and
  // each part holds about a third of the weight.
  const std::size_t units = 1000;
  auto start = [](std::size_t u) { return u * (u - (u > 0 ? 1 : 0)) / 2; };
  const std::vector<std::size_t> bounds =
      cu::split_parts(units, {nullptr, 3}, start);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), units);
  for (std::size_t p = 0; p < 3; ++p) {
    const double weight =
        static_cast<double>(start(bounds[p + 1]) - start(bounds[p]));
    EXPECT_NEAR(weight / static_cast<double>(start(units)), 1.0 / 3.0, 0.01);
  }
}

TEST(CountingSort, CheckSeesTheRunningTotalAfterEveryKey) {
  const std::vector<std::size_t> keys{2, 0, 2, 1, 2};
  std::vector<std::size_t> totals;
  cu::CountingSort<std::size_t> sort(
      3, {0, keys.size()}, {},
      [&](std::size_t begin, std::size_t end, std::size_t* counts) {
        for (std::size_t i = begin; i < end; ++i) ++counts[keys[i]];
      },
      [&](std::size_t running) { totals.push_back(running); });
  EXPECT_EQ(totals, (std::vector<std::size_t>{1, 2, 5}));
  EXPECT_EQ(sort.offsets(), (std::vector<std::size_t>{0, 1, 2, 5}));
}

namespace {

/// Mapping sizes in the granules transition arrays are mapped in.
constexpr std::size_t kGranule = std::size_t{64} << 10;

/// Whether the page at `data` (page-aligned) is mapped.
bool is_mapped(void* data) {
  unsigned char resident = 0;
  return mincore(data, 1, &resident) == 0;
}

/// The stamped records sit one per 4 KiB of a mapping.
constexpr std::size_t kStride = 4096;

/// Writes record i = i + seed at the start of each of the first `records`
/// strides of a mapping.
void stamp(const cu::Mapping& mapping, std::size_t records,
           std::uint64_t seed) {
  auto* words = static_cast<std::uint64_t*>(mapping.data);
  for (std::size_t i = 0; i < records; ++i) {
    words[i * (kStride / sizeof *words)] = i + seed;
  }
}

/// Whether every record stamp() wrote is still there.
bool stamped(const cu::Mapping& mapping, std::size_t records,
             std::uint64_t seed) {
  const auto* words = static_cast<const std::uint64_t*>(mapping.data);
  for (std::size_t i = 0; i < records; ++i) {
    if (words[i * (kStride / sizeof *words)] != i + seed) return false;
  }
  return true;
}

}  // namespace

// Each test starts without a spare (an earlier test in this process may
// have left one) and unmaps what it leaves.
TEST(RetainedMemory, RetiredMappingGoesToTheNextOneAskedFor) {
  cu::release_spare_mapping();
  const cu::Mapping first = cu::grow_mapping({}, 4 * kGranule);
  ASSERT_NE(first.data, nullptr);
  EXPECT_EQ(first.bytes, 4 * kGranule);
  cu::retire_mapping(first);
  // A smaller request takes the spare whole; with no spare left, the next
  // one is mapped afresh at the size asked.
  const cu::Mapping second = cu::grow_mapping({}, 2 * kGranule);
  EXPECT_EQ(second.data, first.data);
  EXPECT_EQ(second.bytes, first.bytes);
  const cu::Mapping third = cu::grow_mapping({}, 2 * kGranule);
  EXPECT_NE(third.data, second.data);
  EXPECT_EQ(third.bytes, 2 * kGranule);
  cu::retire_mapping(third);
  cu::retire_mapping(second);
  cu::release_spare_mapping();
}

TEST(RetainedMemory, RecordsSurviveWhenAReusedMappingGrows) {
  cu::release_spare_mapping();
  cu::retire_mapping(cu::grow_mapping({}, 2 * kGranule));
  cu::Mapping reused = cu::grow_mapping({}, 2 * kGranule);
  const std::size_t records = 2 * kGranule / kStride;
  stamp(reused, records, 7);
  reused = cu::grow_mapping(reused, 64 * kGranule);
  EXPECT_EQ(reused.bytes, 64 * kGranule);
  EXPECT_TRUE(stamped(reused, records, 7));
  stamp(reused, 64 * kGranule / kStride, 9);
  cu::retire_mapping(reused);
  // A spare smaller than asked is grown, not replaced: its pages come back
  // as they were left.
  const cu::Mapping grown = cu::grow_mapping({}, 256 * kGranule);
  EXPECT_EQ(grown.bytes, 256 * kGranule);
  EXPECT_TRUE(stamped(grown, 64 * kGranule / kStride, 9));
  cu::retire_mapping(grown);
  cu::release_spare_mapping();
}

TEST(RetainedMemory, LargerRetiredMappingReplacesASmallerOne) {
  cu::release_spare_mapping();
  const cu::Mapping small = cu::grow_mapping({}, 2 * kGranule);
  const cu::Mapping large = cu::grow_mapping({}, 8 * kGranule);
  cu::retire_mapping(small);
  cu::retire_mapping(large);
  EXPECT_FALSE(is_mapped(small.data));
  const cu::Mapping taken = cu::grow_mapping({}, 2 * kGranule);
  EXPECT_EQ(taken.data, large.data);
  EXPECT_EQ(taken.bytes, large.bytes);
  // A smaller mapping retired after a larger one is the one unmapped.
  const cu::Mapping fresh = cu::grow_mapping({}, 2 * kGranule);
  cu::retire_mapping(taken);
  cu::retire_mapping(fresh);
  EXPECT_FALSE(is_mapped(fresh.data));
  const cu::Mapping kept = cu::grow_mapping({}, 2 * kGranule);
  EXPECT_EQ(kept.data, large.data);
  cu::retire_mapping(kept);
  cu::release_spare_mapping();
}

TEST(RetainedMemory, MappingAboveTheBoundIsUnmapped) {
  cu::release_spare_mapping();
  // Mapped but never touched, so no page of either becomes resident.
  const cu::Mapping above =
      cu::grow_mapping({}, cu::kMaxRetainedBytes + kGranule);
  cu::retire_mapping(above);
  EXPECT_FALSE(is_mapped(above.data));
  const cu::Mapping next = cu::grow_mapping({}, 2 * kGranule);
  EXPECT_EQ(next.bytes, 2 * kGranule);
  cu::retire_mapping(next);
  // A mapping at the bound is kept.
  cu::release_spare_mapping();
  const cu::Mapping at = cu::grow_mapping({}, cu::kMaxRetainedBytes);
  cu::retire_mapping(at);
  EXPECT_TRUE(is_mapped(at.data));
  cu::release_spare_mapping();
  EXPECT_FALSE(is_mapped(at.data));
}

TEST(RetainedMemory, FourThreadsRetireAndTakeConcurrently) {
  cu::release_spare_mapping();
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 200;
  std::atomic<std::size_t> ready{0};
  std::vector<std::size_t> failures(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (std::size_t r = 0; r < kRounds; ++r) {
        // Sizes differ by thread and round, so spares are swapped, grown
        // and unmapped; a mapping two threads held at once would show the
        // other's stamps.
        const std::size_t bytes = (2 + (t + r) % 6) * kGranule;
        const std::uint64_t seed = (t * kRounds + r) << 20;
        cu::Mapping mapping = cu::grow_mapping({}, bytes);
        if (mapping.bytes < bytes) ++failures[t];
        stamp(mapping, bytes / kStride, seed);
        std::this_thread::yield();
        if (!stamped(mapping, bytes / kStride, seed)) ++failures[t];
        if (r % 3 == 0) {
          mapping = cu::grow_mapping(mapping, mapping.bytes + 2 * kGranule);
          if (!stamped(mapping, bytes / kStride, seed)) ++failures[t];
        }
        cu::retire_mapping(mapping);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0u) << "thread " << t;
  }
  cu::release_spare_mapping();
}

namespace {
void* volatile heap_sink = nullptr;
}  // namespace

TEST(RetainedMemory, HeapPolicyIsAppliedOnceAndCallingAgainIsHarmless) {
  // Concurrent first calls and later calls all see the one application.
  std::vector<std::future<bool>> calls;
  for (int i = 0; i < 4; ++i) {
    calls.push_back(std::async(std::launch::async, cu::retain_freed_heap));
  }
  const bool governs = cu::retain_freed_heap();
  for (std::future<bool>& call : calls) EXPECT_EQ(call.get(), governs);
  EXPECT_EQ(cu::retain_freed_heap(), governs);
  if (!governs) {
    GTEST_SKIP() << "the allocator ignores the heap policy (not glibc, or a"
                    " sanitizer's allocator)";
  }
#if defined(__GLIBC__) && __GLIBC_PREREQ(2, 33)
  // 8 MiB is past glibc's default mmap threshold: under the policy the
  // block lives in the heap, and freeing it keeps the heap's pages.
  constexpr std::size_t kBlock = std::size_t{8} << 20;
  const struct mallinfo2 before = mallinfo2();
  void* block = std::malloc(kBlock);
  ASSERT_NE(block, nullptr);
  std::memset(block, 1, kBlock);
  heap_sink = block;
  const struct mallinfo2 held = mallinfo2();
  EXPECT_EQ(held.hblkhd, before.hblkhd);
  std::free(block);
  const struct mallinfo2 after = mallinfo2();
  EXPECT_EQ(after.arena, held.arena);
  EXPECT_GE(after.fordblks, kBlock);
#endif
}

TEST(Table, AlignsColumnsAndCountsRows) {
  cu::TextTable table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row_values("beta", {2.5});
  EXPECT_EQ(table.row_count(), 2u);
  const std::string text = table.to_string();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("2.5"), std::string::npos);
  EXPECT_NE(text.find("-----"), std::string::npos);
}

TEST(Table, RejectsArityMismatch) {
  cu::TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only one"}), cu::Error);
}
