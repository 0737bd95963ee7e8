// Epoch-based reclamation invariants (DESIGN.md §2): a retired node is
// never freed while any guard that could have seen it is live, is freed
// once every thread has moved past it, and a destructor-counting payload
// shows exactly-once destruction (no double free, no leak) across threads.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "reclaim/epoch.h"
#include "util/barrier.h"

namespace llxscx {
namespace {

struct Payload {
  static std::atomic<std::uint64_t> destroyed;
  ~Payload() { destroyed.fetch_add(1); }
};
std::atomic<std::uint64_t> Payload::destroyed{0};

class EpochTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Epoch::drain_all_for_testing();
    Payload::destroyed.store(0);
  }
};

TEST_F(EpochTest, RetiredNodeSurvivesLiveGuardAndDiesAfter) {
  {
    Epoch::Guard g;
    Epoch::retire(new Payload);
    // Our own guard is live, so the drain must leave the node in limbo.
    Epoch::drain_all_for_testing();
    EXPECT_EQ(Payload::destroyed.load(), 0u);
    EXPECT_GE(Epoch::outstanding(), 1u);
  }
  Epoch::drain_all_for_testing();
  EXPECT_EQ(Payload::destroyed.load(), 1u);
}

TEST_F(EpochTest, GuardOnAnotherThreadBlocksReclamation) {
  SpinBarrier pinned(2), release(2);
  std::thread pinner([&] {
    Epoch::Guard g;
    pinned.arrive_and_wait();   // guard is up
    release.arrive_and_wait();  // main thread finished its checks
  });
  pinned.arrive_and_wait();

  Epoch::retire(new Payload);
  Epoch::drain_all_for_testing();
  EXPECT_EQ(Payload::destroyed.load(), 0u)
      << "a node retired while another thread holds a guard must survive";

  release.arrive_and_wait();
  pinner.join();
  Epoch::drain_all_for_testing();
  EXPECT_EQ(Payload::destroyed.load(), 1u);
}

TEST_F(EpochTest, GuardsAreReentrant) {
  Epoch::Guard outer;
  {
    Epoch::Guard inner;
    Epoch::retire(new Payload);
  }
  // The inner guard's destruction must not clear the outer reservation.
  Epoch::drain_all_for_testing();
  EXPECT_EQ(Payload::destroyed.load(), 0u);
}

// A pinning thread holds one guard through two waves of workers, so no
// record can leave limbo: outstanding() must sum exactly each wave's
// retires over the exited threads' records, which the second wave's
// threads adopt from the pool. Once the pin drops, one drain destroys
// every record exactly once.
TEST_F(EpochTest, ExactlyOnceDestructionAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 5000;
  constexpr std::uint64_t kPerWave = kThreads * kPerThread;
  const std::uint64_t freed_before = Epoch::total_freed();
  SpinBarrier pinned(2), release(2);
  std::thread pinner([&] {
    Epoch::Guard g;
    pinned.arrive_and_wait();   // guard is up
    release.arrive_and_wait();  // both waves counted
  });
  pinned.arrive_and_wait();
  for (std::uint64_t wave = 1; wave <= 2; ++wave) {
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([] {
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          Epoch::Guard g;
          Epoch::retire(new Payload);
        }
      });
    }
    for (auto& th : pool) th.join();
    EXPECT_EQ(Epoch::outstanding(), wave * kPerWave)
        << "the pinned guard must hold every record of waves 1.." << wave;
  }
  release.arrive_and_wait();
  pinner.join();
  Epoch::drain_all_for_testing();
  EXPECT_EQ(Payload::destroyed.load(), 2 * kPerWave)
      << "every retired payload must be destroyed exactly once";
  EXPECT_EQ(Epoch::outstanding(), 0u);
  EXPECT_EQ(Epoch::total_freed() - freed_before, 2 * kPerWave);
}

// A thread finds its per-domain handle by the domain state's index. Here
// one thread holds a guard on domain A while it registers kMore fresh
// domains (so its handle table grows under that guard), interleaves two
// nested guards per domain and drops them out of LIFO order, then destroys
// and re-creates the domains from the state pool. Every drain must free
// exactly what no live guard pins: A's outer guard, taken before the
// growth, must still clear A's reservation (its handle did not move), and
// a pooled state's handle must come back at depth 0.
TEST_F(EpochTest, IndexedHandlesSurviveGrowthAndDomainReuse) {
  constexpr std::size_t kMore = 48;
  // Drains d; true iff exactly `pinned` records stay in its limbo.
  const auto drains_to = [](const Epoch::Domain& d, std::uint64_t pinned) {
    d.drain();
    return d.outstanding() == pinned;
  };
  // A guard on d with one record retired under it: the drain must keep
  // that record while the guard lives and free it after.
  const auto guard_pins = [&](const Epoch::Domain& d) {
    Epoch::DomainScope scope(d);
    std::optional<Epoch::Guard> g(std::in_place);
    Epoch::retire(new Payload);
    const bool kept = drains_to(d, 1);
    g.reset();
    return kept && drains_to(d, 0);
  };

  Epoch::Domain a;
  std::optional<Epoch::Guard> outer_a;
  {
    Epoch::DomainScope scope(a);
    outer_a.emplace();
    Epoch::retire(new Payload);
  }

  std::vector<std::unique_ptr<Epoch::Domain>> more;
  std::vector<std::optional<Epoch::Guard>> outer(kMore), inner(kMore);
  for (std::size_t i = 0; i < kMore; ++i) {
    more.push_back(std::make_unique<Epoch::Domain>());
    Epoch::DomainScope scope(*more.back());
    outer[i].emplace();  // registers this thread's handle for the domain
  }
  for (std::size_t i = kMore; i-- > 0;) {
    Epoch::DomainScope scope(*more[i]);
    inner[i].emplace();
    Epoch::retire(new Payload);
  }
  // Outer guards first: the nested inner ones still pin every domain.
  for (auto& g : outer) g.reset();
  for (const auto& d : more) EXPECT_TRUE(drains_to(*d, 1));
  EXPECT_TRUE(drains_to(a, 1)) << "A's outer guard is still live";
  // Then the even domains' inner guards: only those domains drain.
  for (std::size_t i = 0; i < kMore; i += 2) inner[i].reset();
  for (std::size_t i = 0; i < kMore; ++i) {
    EXPECT_TRUE(drains_to(*more[i], i % 2)) << "domain " << i;
  }
  EXPECT_EQ(Payload::destroyed.load(), kMore / 2);
  // A's guard predates the growth: dropping it must clear A's reservation
  // through the handle it holds, and leave that handle at depth 0.
  outer_a.reset();
  EXPECT_TRUE(drains_to(a, 0)) << "A's outer guard did not clear A's reservation";
  EXPECT_TRUE(guard_pins(a));
  for (std::size_t i = 1; i < kMore; i += 2) inner[i].reset();
  for (const auto& d : more) EXPECT_TRUE(drains_to(*d, 0));
  EXPECT_EQ(Payload::destroyed.load(), kMore + 2);

  // Re-create the domains from the pool: each reused state keeps its
  // counters (and its index), and this thread's handle for it is idle.
  std::uint64_t freed_before = 0;
  for (const auto& d : more) freed_before += d->total_freed();
  more.clear();
  std::uint64_t freed_reused = 0;
  for (std::size_t i = 0; i < kMore; ++i) {
    more.push_back(std::make_unique<Epoch::Domain>());
    freed_reused += more.back()->total_freed();
  }
  EXPECT_EQ(freed_reused, freed_before) << "the domains came from the pool";
  for (const auto& d : more) EXPECT_TRUE(guard_pins(*d));
  EXPECT_EQ(Payload::destroyed.load(), 2 * kMore + 2);
  EXPECT_EQ(a.outstanding(), 0u);
}

}  // namespace
}  // namespace llxscx
