#include "sppnet/sim/event_queue.h"

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sppnet/common/rng.h"

namespace sppnet {
namespace {

TEST(EventQueueTest, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  for (const double t : {5.0, 1.0, 3.0, 2.0, 4.0}) {
    SimEvent e;
    e.time = t;
    q.Schedule(e);
  }
  double prev = -1.0;
  while (!q.empty()) {
    const SimEvent e = q.Pop();
    EXPECT_GT(e.time, prev);
    prev = e.time;
  }
}

TEST(EventQueueTest, TiesBreakInScheduleOrder) {
  EventQueue q;
  for (std::uint32_t i = 0; i < 10; ++i) {
    SimEvent e;
    e.time = 1.0;
    e.node = i;
    q.Schedule(e);
  }
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(q.Pop().node, i);
  }
}

TEST(EventQueueTest, NextTimeReflectsEarliest) {
  EventQueue q;
  SimEvent a;
  a.time = 7.0;
  q.Schedule(a);
  EXPECT_DOUBLE_EQ(q.NextTime(), 7.0);
  SimEvent b;
  b.time = 2.0;
  q.Schedule(b);
  EXPECT_DOUBLE_EQ(q.NextTime(), 2.0);
}

TEST(EventQueueTest, PayloadRoundTrips) {
  EventQueue q;
  SimEvent e;
  e.time = 1.0;
  e.kind = 3;
  e.node = 42;
  e.a = 0xdeadbeefcafeULL;
  e.b = 77;
  e.x = 2.5;
  q.Schedule(e);
  const SimEvent out = q.Pop();
  EXPECT_EQ(out.kind, 3u);
  EXPECT_EQ(out.node, 42u);
  EXPECT_EQ(out.a, 0xdeadbeefcafeULL);
  EXPECT_EQ(out.b, 77u);
  EXPECT_DOUBLE_EQ(out.x, 2.5);
}

TEST(EventQueueTest, InterleavedScheduleAndPop) {
  EventQueue q;
  SimEvent e;
  e.time = 1.0;
  q.Schedule(e);
  EXPECT_DOUBLE_EQ(q.Pop().time, 1.0);
  e.time = 3.0;
  q.Schedule(e);
  e.time = 2.0;
  q.Schedule(e);
  EXPECT_DOUBLE_EQ(q.Pop().time, 2.0);
  EXPECT_DOUBLE_EQ(q.Pop().time, 3.0);
  EXPECT_TRUE(q.empty());
}

// --- Determinism stress ------------------------------------------------
//
// The simulator's bit-reproducibility hinges on one documented rule:
// equal-time events pop in Schedule() order (FIFO), implemented by the
// monotone sequence number attached at Schedule() time. These tests
// hammer that rule with thousands of colliding timestamps, because a
// heap without the tiebreaker passes small happy-path tests yet
// reorders under real load.

TEST(EventQueueStressTest, ThousandsOfCollidingTimestampsPopFifo) {
  // 5000 events over only 7 distinct timestamps: ~700 collisions per
  // timestamp. Tag each event with its global schedule index and check
  // the pop order is (time, schedule index) lexicographic.
  EventQueue q;
  Rng rng(2024);
  const double kTimes[] = {0.0, 1.0, 1.5, 2.0, 2.5, 3.0, 10.0};
  constexpr std::uint64_t kNumEvents = 5000;
  for (std::uint64_t i = 0; i < kNumEvents; ++i) {
    SimEvent e;
    e.time = kTimes[rng.NextBounded(std::size(kTimes))];
    e.a = i;  // Global schedule order.
    q.Schedule(e);
  }
  ASSERT_EQ(q.size(), kNumEvents);

  double prev_time = -1.0;
  std::uint64_t prev_index = 0;
  bool first = true;
  std::uint64_t popped = 0;
  while (!q.empty()) {
    const SimEvent e = q.Pop();
    if (!first && e.time == prev_time) {
      // Same timestamp: strictly increasing schedule order (FIFO).
      EXPECT_GT(e.a, prev_index);
    } else if (!first) {
      EXPECT_GT(e.time, prev_time);
    }
    prev_time = e.time;
    prev_index = e.a;
    first = false;
    ++popped;
  }
  EXPECT_EQ(popped, kNumEvents);
}

TEST(EventQueueStressTest, FifoSurvivesInterleavedPops) {
  // Schedule/pop interleaving must not disturb the FIFO rule: events
  // scheduled *after* some pops still sort behind earlier same-time
  // events that are still queued.
  EventQueue q;
  Rng rng(99);
  std::uint64_t next_index = 0;
  double prev_time = -1.0;
  std::uint64_t prev_index = 0;
  bool first = true;
  for (int round = 0; round < 200; ++round) {
    const std::uint64_t burst = 1 + rng.NextBounded(25);
    for (std::uint64_t i = 0; i < burst; ++i) {
      SimEvent e;
      // Times never go below what was already popped (simulator
      // invariant: no scheduling in the past).
      e.time = (prev_time < 0.0 ? 0.0 : prev_time) +
               static_cast<double>(rng.NextBounded(3));
      e.a = next_index++;
      q.Schedule(e);
    }
    const std::uint64_t pops = 1 + rng.NextBounded(burst);
    for (std::uint64_t i = 0; i < pops && !q.empty(); ++i) {
      const SimEvent e = q.Pop();
      if (!first) {
        ASSERT_GE(e.time, prev_time);
        if (e.time == prev_time) {
          ASSERT_GT(e.a, prev_index);
        }
      }
      prev_time = e.time;
      prev_index = e.a;
      first = false;
    }
  }
  // Drain the rest under the same invariant.
  while (!q.empty()) {
    const SimEvent e = q.Pop();
    ASSERT_GE(e.time, prev_time);
    if (e.time == prev_time) {
      ASSERT_GT(e.a, prev_index);
    }
    prev_time = e.time;
    prev_index = e.a;
  }
}

TEST(EventQueueStressTest, IdenticalScheduleSequenceDrainsIdentically) {
  // Two queues fed the same sequence drain byte-identically — the
  // property the whole-simulator determinism tests build on.
  const auto feed = [](EventQueue& q) {
    Rng rng(7);
    for (std::uint64_t i = 0; i < 3000; ++i) {
      SimEvent e;
      e.time = static_cast<double>(rng.NextBounded(50)) * 0.25;
      e.node = static_cast<std::uint32_t>(i);
      q.Schedule(e);
    }
  };
  EventQueue a, b;
  feed(a);
  feed(b);
  while (!a.empty()) {
    ASSERT_FALSE(b.empty());
    const SimEvent ea = a.Pop();
    const SimEvent eb = b.Pop();
    ASSERT_EQ(ea.time, eb.time);
    ASSERT_EQ(ea.node, eb.node);
  }
  EXPECT_TRUE(b.empty());
}

// --- Both queue classes -----------------------------------------------
//
// Every ordering rule above must hold for the production calendar queue
// as well as for the binary-heap EventQueue, the oracle it is held
// against. Each test below is a generic body run on both classes; the
// differential test feeds identical schedule sequences to one of each
// and asserts the pop streams match event for event — the queue-level
// half of the whole-simulator goldens.

/// Which queue class a parameterized test runs on. A value parameter
/// (rather than a gtest typed suite) keeps the test names stable.
enum class QueueClass { kCalendar, kHeap };

/// Runs `body(queue)` on a fresh queue of the selected class.
template <typename Body>
void WithQueue(QueueClass queue_class, Body&& body) {
  if (queue_class == QueueClass::kCalendar) {
    CalendarQueue q;
    body(q);
  } else {
    EventQueue q;
    body(q);
  }
}

std::string QueueClassName(
    const ::testing::TestParamInfo<QueueClass>& info) {
  return info.param == QueueClass::kCalendar ? "Calendar" : "HeapReference";
}

class EngineQueueTest : public ::testing::TestWithParam<QueueClass> {};

INSTANTIATE_TEST_SUITE_P(BothEngines, EngineQueueTest,
                         ::testing::Values(QueueClass::kCalendar,
                                           QueueClass::kHeap),
                         QueueClassName);

TEST_P(EngineQueueTest, PopsInTimeOrderWithFifoTies) {
  WithQueue(GetParam(), [](auto& q) {
    Rng rng(4242);
    constexpr std::uint64_t kNumEvents = 20000;
    const double kTimes[] = {0.0, 0.5, 1.0, 1.25, 2.0, 7.5, 100.0};
    for (std::uint64_t i = 0; i < kNumEvents; ++i) {
      SimEvent e;
      e.time = kTimes[rng.NextBounded(std::size(kTimes))];
      e.a = i;
      q.Schedule(e);
    }
    ASSERT_EQ(q.size(), kNumEvents);
    double prev_time = -1.0;
    std::uint64_t prev_index = 0;
    bool first = true;
    while (!q.empty()) {
      EXPECT_DOUBLE_EQ(q.NextTime(), q.NextTime());  // Idempotent peek.
      const SimEvent e = q.Pop();
      if (!first && e.time == prev_time) {
        ASSERT_GT(e.a, prev_index);
      } else if (!first) {
        ASSERT_GT(e.time, prev_time);
      }
      prev_time = e.time;
      prev_index = e.a;
      first = false;
    }
  });
}

TEST_P(EngineQueueTest, MassiveSingleTimestampFloodPopsFifo) {
  // Worst-case tie flood: every event in one calendar day. Selection
  // must fall back to pure seq order.
  WithQueue(GetParam(), [](auto& q) {
    constexpr std::uint32_t kNumEvents = 10000;
    for (std::uint32_t i = 0; i < kNumEvents; ++i) {
      SimEvent e;
      e.time = 3.25;
      e.node = i;
      q.Schedule(e);
    }
    for (std::uint32_t i = 0; i < kNumEvents; ++i) {
      ASSERT_EQ(q.Pop().node, i);
    }
    EXPECT_TRUE(q.empty());
  });
}

TEST(EngineDifferentialTest, EnginesDrainIdenticallyUnderRandomLoad) {
  // Interleaved schedule/pop with colliding timestamps, growth past
  // several resize thresholds, and drain back down through the shrink
  // path: the calendar queue and the heap oracle must produce
  // byte-identical pop streams.
  CalendarQueue calendar;
  EventQueue heap;
  Rng rng(20240731);
  double now = 0.0;
  std::uint32_t next_node = 0;
  const auto schedule = [&](double time) {
    SimEvent e;
    e.time = time;
    e.node = next_node++;
    calendar.Schedule(e);
    heap.Schedule(e);
  };
  for (int round = 0; round < 400; ++round) {
    const std::uint64_t burst = 1 + rng.NextBounded(60);
    for (std::uint64_t i = 0; i < burst; ++i) {
      // Mix of near-now, clustered (tie-prone), and far-future times.
      const std::uint64_t shape = rng.NextBounded(10);
      double t;
      if (shape < 6) {
        t = now + static_cast<double>(rng.NextBounded(8)) * 0.25;
      } else if (shape < 9) {
        t = now + static_cast<double>(rng.NextBounded(1000)) * 0.01;
      } else {
        t = now + 1e6 + static_cast<double>(rng.NextBounded(100));
      }
      schedule(t);
    }
    const std::uint64_t pops = rng.NextBounded(burst + 8);
    for (std::uint64_t i = 0; i < pops && !calendar.empty(); ++i) {
      ASSERT_FALSE(heap.empty());
      ASSERT_DOUBLE_EQ(calendar.NextTime(), heap.NextTime());
      const SimEvent a = calendar.Pop();
      const SimEvent b = heap.Pop();
      ASSERT_EQ(a.time, b.time);
      ASSERT_EQ(a.seq, b.seq);
      ASSERT_EQ(a.node, b.node);
      now = a.time;
    }
  }
  while (!calendar.empty()) {
    ASSERT_FALSE(heap.empty());
    const SimEvent a = calendar.Pop();
    const SimEvent b = heap.Pop();
    ASSERT_EQ(a.time, b.time);
    ASSERT_EQ(a.seq, b.seq);
    ASSERT_EQ(a.node, b.node);
  }
  EXPECT_TRUE(heap.empty());
}

// --- Death tests: empty-queue access and invalid times -----------------
//
// NextTime()/Pop() on an empty queue and non-finite or negative
// Schedule() times are programming errors; both queue classes must
// abort loudly instead of silently corrupting delivery order (a NaN
// breaks the comparator's strict weak ordering; empty access was UB).

using EngineQueueDeathTest = EngineQueueTest;

INSTANTIATE_TEST_SUITE_P(BothEngines, EngineQueueDeathTest,
                         ::testing::Values(QueueClass::kCalendar,
                                           QueueClass::kHeap),
                         QueueClassName);

TEST_P(EngineQueueDeathTest, PopOnEmptyAborts) {
  WithQueue(GetParam(), [](auto& q) {
    EXPECT_DEATH(q.Pop(), "SPPNET_CHECK failed");
    SimEvent e;
    e.time = 1.0;
    q.Schedule(e);
    q.Pop();
    EXPECT_DEATH(q.Pop(), "SPPNET_CHECK failed");  // Drained, not just new.
  });
}

TEST_P(EngineQueueDeathTest, NextTimeOnEmptyAborts) {
  WithQueue(GetParam(), [](auto& q) {
    EXPECT_DEATH(q.NextTime(), "SPPNET_CHECK failed");
  });
}

TEST_P(EngineQueueDeathTest, ScheduleRejectsNonFiniteAndNegativeTimes) {
  WithQueue(GetParam(), [](auto& q) {
    SimEvent e;
    e.time = std::numeric_limits<double>::quiet_NaN();
    EXPECT_DEATH(q.Schedule(e), "isfinite");
    e.time = std::numeric_limits<double>::infinity();
    EXPECT_DEATH(q.Schedule(e), "isfinite");
    e.time = -std::numeric_limits<double>::infinity();
    EXPECT_DEATH(q.Schedule(e), "isfinite");
    e.time = -1e-9;
    EXPECT_DEATH(q.Schedule(e), "time >= 0");
    // The largest finite double is legal — clamped into the final
    // calendar day, not overflowed.
    e.time = std::numeric_limits<double>::max();
    q.Schedule(e);
    EXPECT_DOUBLE_EQ(q.Pop().time, std::numeric_limits<double>::max());
  });
}

// --- Calendar-specific behaviour ---------------------------------------

TEST(CalendarQueueTest, ResizeChurnPreservesOrderAndCountsResizes) {
  // Grow through several doublings, then drain through the shrink path;
  // the resize schedule is deterministic and order never changes.
  CalendarQueue q;
  Rng rng(555);
  constexpr std::uint64_t kNumEvents = 50000;
  for (std::uint64_t i = 0; i < kNumEvents; ++i) {
    SimEvent e;
    e.time = static_cast<double>(rng.NextBounded(100000)) * 0.001;
    q.Schedule(e);
  }
  EXPECT_GT(q.resizes(), 0u);        // Growth resizes fired.
  EXPECT_GT(q.num_buckets(), 16u);   // And actually doubled.
  EXPECT_GT(q.ApproxMemoryBytes(), 0u);
  const std::uint64_t grow_resizes = q.resizes();
  double prev = -1.0;
  std::uint64_t prev_seq = 0;
  while (!q.empty()) {
    const SimEvent e = q.Pop();
    if (e.time == prev) {
      ASSERT_GT(e.seq, prev_seq);
    } else {
      ASSERT_GT(e.time, prev);
    }
    prev = e.time;
    prev_seq = e.seq;
  }
  EXPECT_GT(q.resizes(), grow_resizes);  // Shrink resizes fired too.
  EXPECT_EQ(q.num_buckets(), 16u);       // Back down to the floor.
}

TEST(CalendarQueueTest, SparseFarApartEventsUseGlobalScanFallback) {
  // Consecutive events more than a whole calendar year apart: the
  // day-walk finds nothing and the global-scan fallback must locate the
  // true minimum every time.
  CalendarQueue q;
  std::vector<double> times;
  for (int i = 0; i < 50; ++i) {
    times.push_back(static_cast<double>(i) * 1e7 + 0.5);
  }
  // Schedule in a scrambled but deterministic order.
  for (std::size_t i = 0; i < times.size(); ++i) {
    SimEvent e;
    e.time = times[(i * 37) % times.size()];
    q.Schedule(e);
  }
  for (const double expected : times) {
    ASSERT_DOUBLE_EQ(q.Pop().time, expected);
  }
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueueTest, FarFutureTimesClampIntoFinalDayInOrder) {
  // Times past the uint64 day range collapse into one final "day";
  // (time, seq) still resolves their relative order.
  CalendarQueue q;
  const double kHuge[] = {1e300, 1e250, 1e280, 1e250, 3.0};
  for (const double t : kHuge) {
    SimEvent e;
    e.time = t;
    q.Schedule(e);
  }
  EXPECT_DOUBLE_EQ(q.Pop().time, 3.0);
  EXPECT_DOUBLE_EQ(q.Pop().time, 1e250);
  const SimEvent second_1e250 = q.Pop();
  EXPECT_DOUBLE_EQ(second_1e250.time, 1e250);
  EXPECT_EQ(second_1e250.seq, 3u);  // FIFO among the equal clamped times.
  EXPECT_DOUBLE_EQ(q.Pop().time, 1e280);
  EXPECT_DOUBLE_EQ(q.Pop().time, 1e300);
}

TEST(CalendarQueueTest, StationaryPopulationRecalibratesWidth) {
  // A stationary population never trips the size-based thresholds, so
  // the periodic recalibration is the only path to fix a badly seeded
  // width (default 0.25 s vs ~50 s observed gaps here). Mirror every
  // operation against the reference heap to show the recalibration
  // resize leaves the pop stream untouched.
  CalendarQueue q;
  EventQueue ref;
  Rng rng(808);
  double now = 0.0;
  const double initial_width = q.bucket_width_seconds();
  // Prime a stable population of ~64 events spaced ~50 s apart.
  const auto schedule_one = [&](double base) {
    SimEvent e;
    e.time = base + 25.0 + static_cast<double>(rng.NextBounded(50));
    q.Schedule(e);
    ref.Schedule(e);
  };
  for (int i = 0; i < 64; ++i) schedule_one(now + 50.0 * i);
  for (int round = 0; round < 20000; ++round) {
    const SimEvent a = q.Pop();
    const SimEvent b = ref.Pop();
    ASSERT_EQ(a.time, b.time);
    ASSERT_EQ(a.seq, b.seq);
    now = a.time;
    schedule_one(now + 50.0 * 64);
  }
  EXPECT_NE(q.bucket_width_seconds(), initial_width);
  EXPECT_GT(q.bucket_width_seconds(), 1.0);  // Tracked the ~50 s gaps.
}

}  // namespace
}  // namespace sppnet
