// GracePeriod: Synchronize waits for read sections opened before it, not
// for sections opened after its parity flip, and refuses to run inside a
// read section. The stress case publishes and frees objects under
// concurrent readers, so TSan and ASan see any premature free.
#include "common/grace_period.h"
#include "common/thread_slot.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace scrpqo {
namespace {

using std::chrono::milliseconds;

/// Polls `flag` for up to `limit`; true once it is set.
bool WaitFor(const std::atomic<bool>& flag, milliseconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!flag.load()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(milliseconds(1));
  }
  return true;
}

TEST(GracePeriodTest, SynchronizeWithNoReadersReturns) {
  GracePeriod gp;
  gp.Synchronize();
  gp.Synchronize();
  EXPECT_EQ(gp.epoch(), 2u);
}

TEST(GracePeriodTest, NestedSectionsCloseCleanly) {
  GracePeriod gp;
  {
    GracePeriod::ReadSection outer(gp);
    GracePeriod::ReadSection inner(gp);
  }
  gp.Synchronize();
  EXPECT_EQ(gp.epoch(), 1u);
}

TEST(GracePeriodTest, SynchronizeWaitsForSectionOpenedBefore) {
  GracePeriod gp;
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  std::atomic<bool> synced{false};
  std::thread reader([&] {
    GracePeriod::ReadSection section(gp);
    entered.store(true);
    while (!release.load()) std::this_thread::sleep_for(milliseconds(1));
  });
  ASSERT_TRUE(WaitFor(entered, milliseconds(10000)));
  std::thread writer([&] {
    gp.Synchronize();
    synced.store(true);
  });
  std::this_thread::sleep_for(milliseconds(50));
  EXPECT_FALSE(synced.load()) << "Synchronize returned under an open section";
  release.store(true);
  reader.join();
  writer.join();
  EXPECT_TRUE(synced.load());
}

TEST(GracePeriodTest, SynchronizeIgnoresSectionsOpenedAfterFlip) {
  GracePeriod gp;
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  std::atomic<bool> synced{false};
  std::thread early_reader([&] {
    GracePeriod::ReadSection section(gp);
    entered.store(true);
    while (!release.load()) std::this_thread::sleep_for(milliseconds(1));
  });
  ASSERT_TRUE(WaitFor(entered, milliseconds(10000)));
  std::thread writer([&] {
    gp.Synchronize();
    synced.store(true);
  });
  // Once the epoch moved, the writer has flipped and is draining the old
  // parity, where only the early reader counts.
  const auto deadline = std::chrono::steady_clock::now() + milliseconds(10000);
  while (gp.epoch() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  ASSERT_EQ(gp.epoch(), 1u);
  {
    GracePeriod::ReadSection late(gp);
    release.store(true);
    EXPECT_TRUE(WaitFor(synced, milliseconds(10000)))
        << "Synchronize waited for a section opened after its flip";
  }
  early_reader.join();
  writer.join();
}

TEST(GracePeriodDeathTest, SynchronizeInsideReadSectionChecks) {
  // Re-exec rather than fork: the test binary may have started threads.
  const std::string saved_style = ::testing::FLAGS_gtest_death_test_style;
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        GracePeriod gp;
        GracePeriod::ReadSection section(gp);
        gp.Synchronize();
      },
      "inside a read section");
  ::testing::FLAGS_gtest_death_test_style = saved_style;
}

TEST(GracePeriodTest, PublishedObjectsOutliveTheirReaders) {
  constexpr int kReaders = 3;
  constexpr int kSwaps = 300;
  constexpr int kAlive = 0x5eed;
  struct Box {
    int value = kAlive;
    ~Box() { value = 0; }
  };
  GracePeriod gp;
  std::atomic<Box*> published{new Box};
  std::atomic<bool> stop{false};
  std::atomic<int64_t> bad{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        GracePeriod::ReadSection section(gp);
        const Box* box = published.load(std::memory_order_seq_cst);
        if (box->value != kAlive) bad.fetch_add(1);
      }
    });
  }
  for (int i = 0; i < kSwaps; ++i) {
    std::unique_ptr<Box> old(
        published.exchange(new Box, std::memory_order_seq_cst));
    gp.Synchronize();
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  delete published.load();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(gp.epoch(), static_cast<uint64_t>(kSwaps));
}

// The slot helper GracePeriod and the metrics registry share: stable per
// thread, distinct across threads.
TEST(ThreadSlotTest, StablePerThreadDistinctAcrossThreads) {
  const unsigned mine = ThisThreadSlot();
  EXPECT_EQ(ThisThreadSlot(), mine);
  constexpr int kThreads = 8;
  std::vector<unsigned> slots(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&slots, t] {
      slots[static_cast<size_t>(t)] = ThisThreadSlot();
      EXPECT_EQ(ThisThreadSlot(), slots[static_cast<size_t>(t)]);
    });
  }
  for (std::thread& th : threads) th.join();
  std::set<unsigned> distinct(slots.begin(), slots.end());
  distinct.insert(mine);
  EXPECT_EQ(distinct.size(), static_cast<size_t>(kThreads) + 1);
}

}  // namespace
}  // namespace scrpqo
