#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <exception>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/framepool.hpp"
#include "sim/readyqueue.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "util/rng.hpp"

namespace iop::sim {
namespace {

Task<void> appendAfter(Engine& eng, Time dt, std::vector<int>& log, int id) {
  co_await eng.delay(dt);
  log.push_back(id);
}

TEST(Engine, TimeAdvancesThroughDelays) {
  Engine eng;
  std::vector<double> seen;
  eng.spawn([](Engine& e, std::vector<double>& out) -> Task<void> {
    out.push_back(e.now());
    co_await e.delay(1.5);
    out.push_back(e.now());
    co_await e.delay(2.5);
    out.push_back(e.now());
  }(eng, seen));
  eng.run();
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_DOUBLE_EQ(seen[0], 0.0);
  EXPECT_DOUBLE_EQ(seen[1], 1.5);
  EXPECT_DOUBLE_EQ(seen[2], 4.0);
}

TEST(Engine, EventsOrderedByTimeThenSequence) {
  Engine eng;
  std::vector<int> log;
  eng.spawn(appendAfter(eng, 2.0, log, 2));
  eng.spawn(appendAfter(eng, 1.0, log, 1));
  eng.spawn(appendAfter(eng, 2.0, log, 3));  // same time as id 2, spawned later
  eng.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, ZeroDelayYieldsAfterPendingEvents) {
  Engine eng;
  std::vector<int> log;
  eng.spawn([](Engine& e, std::vector<int>& out) -> Task<void> {
    out.push_back(1);
    co_await e.yield();
    out.push_back(3);
  }(eng, log));
  eng.spawn([](std::vector<int>& out) -> Task<void> {
    out.push_back(2);
    co_return;
  }(log));
  eng.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, NestedTaskAwaitPropagatesValues) {
  Engine eng;
  double result = 0;
  eng.spawn([](Engine& e, double& out) -> Task<void> {
    auto inner = [](Engine& e) -> Task<double> {
      co_await e.delay(3.0);
      co_return 42.5;
    };
    out = co_await inner(e);
    out += e.now();
  }(eng, result));
  eng.run();
  EXPECT_DOUBLE_EQ(result, 45.5);
}

TEST(Engine, ExceptionInDetachedTaskSurfacesFromRun) {
  Engine eng;
  eng.spawn([](Engine& e) -> Task<void> {
    co_await e.delay(1.0);
    throw std::runtime_error("boom");
  }(eng));
  EXPECT_THROW(eng.run(), std::runtime_error);
}

TEST(Engine, ExceptionPropagatesThroughNestedAwait) {
  Engine eng;
  bool caught = false;
  eng.spawn([](Engine& e, bool& caught) -> Task<void> {
    auto failing = [](Engine& e) -> Task<void> {
      co_await e.delay(1.0);
      throw std::logic_error("inner");
    };
    try {
      co_await failing(e);
    } catch (const std::logic_error&) {
      caught = true;
    }
  }(eng, caught));
  eng.run();
  EXPECT_TRUE(caught);
}

TEST(Engine, DeadlockDetected) {
  Engine eng;
  Event ev(eng);  // not set until after the deadlock fires
  eng.spawn([](Event& ev) -> Task<void> { co_await ev.wait(); }(ev));
  EXPECT_THROW(eng.run(), DeadlockError);
  // Releasing the waiter drains it cleanly (its frame is parked in the
  // event's waiter list, which nobody owns — leaving it would leak).
  ev.set();
  eng.run();
}

TEST(Engine, RunUntilStopsAtLimit) {
  Engine eng;
  std::vector<int> log;
  eng.spawn(appendAfter(eng, 1.0, log, 1));
  eng.spawn(appendAfter(eng, 5.0, log, 2));
  eng.runUntil(3.0);
  EXPECT_EQ(log, (std::vector<int>{1}));
  EXPECT_DOUBLE_EQ(eng.now(), 3.0);
  eng.runUntil(10.0);
  EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(Engine, DeterministicEventCount) {
  auto run = [] {
    Engine eng(99);
    std::vector<int> log;
    for (int i = 0; i < 50; ++i) {
      eng.spawn(appendAfter(eng, eng.rng().uniform(), log, i));
    }
    eng.run();
    return std::make_pair(eng.eventsDispatched(), log);
  };
  auto [count1, log1] = run();
  auto [count2, log2] = run();
  EXPECT_EQ(count1, count2);
  EXPECT_EQ(log1, log2);
}

TEST(Latch, ReleasesAllWaitersAtZero) {
  Engine eng;
  Latch latch(eng, 3);
  int released = 0;
  for (int i = 0; i < 2; ++i) {
    eng.spawn([](Latch& l, int& r) -> Task<void> {
      co_await l.wait();
      ++r;
    }(latch, released));
  }
  eng.spawn([](Engine& e, Latch& l) -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      co_await e.delay(1.0);
      l.countDown();
    }
  }(eng, latch));
  eng.run();
  EXPECT_EQ(released, 2);
}

TEST(Latch, WaitAfterZeroCompletesImmediately) {
  Engine eng;
  Latch latch(eng, 0);
  bool done = false;
  eng.spawn([](Latch& l, bool& d) -> Task<void> {
    co_await l.wait();
    d = true;
  }(latch, done));
  eng.run();
  EXPECT_TRUE(done);
}

TEST(Latch, UnderflowThrows) {
  Engine eng;
  Latch latch(eng, 1);
  latch.countDown();
  EXPECT_THROW(latch.countDown(), std::logic_error);
}

TEST(Event, SetWakesAllAndStaysSet) {
  Engine eng;
  Event ev(eng);
  int woke = 0;
  for (int i = 0; i < 3; ++i) {
    eng.spawn([](Event& ev, int& woke) -> Task<void> {
      co_await ev.wait();
      ++woke;
    }(ev, woke));
  }
  eng.spawn([](Engine& e, Event& ev) -> Task<void> {
    co_await e.delay(2.0);
    ev.set();
  }(eng, ev));
  eng.run();
  EXPECT_EQ(woke, 3);
  EXPECT_TRUE(ev.isSet());
}

TEST(Resource, SerializesCapacityOne) {
  Engine eng;
  Resource res(eng, 1);
  std::vector<double> completions;
  for (int i = 0; i < 3; ++i) {
    eng.spawn([](Engine& e, Resource& r, std::vector<double>& out)
                  -> Task<void> {
      co_await r.use(2.0);
      out.push_back(e.now());
    }(eng, res, completions));
  }
  eng.run();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_DOUBLE_EQ(completions[0], 2.0);
  EXPECT_DOUBLE_EQ(completions[1], 4.0);
  EXPECT_DOUBLE_EQ(completions[2], 6.0);
}

TEST(Resource, CapacityTwoRunsPairsConcurrently) {
  Engine eng;
  Resource res(eng, 2);
  std::vector<double> completions;
  for (int i = 0; i < 4; ++i) {
    eng.spawn([](Engine& e, Resource& r, std::vector<double>& out)
                  -> Task<void> {
      co_await r.use(2.0);
      out.push_back(e.now());
    }(eng, res, completions));
  }
  eng.run();
  ASSERT_EQ(completions.size(), 4u);
  EXPECT_DOUBLE_EQ(completions[1], 2.0);
  EXPECT_DOUBLE_EQ(completions[3], 4.0);
}

TEST(Resource, FcfsOrderPreserved) {
  Engine eng;
  Resource res(eng, 1);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    eng.spawn([](Engine& e, Resource& r, std::vector<int>& out, int id)
                  -> Task<void> {
      co_await e.delay(0.1 * id);  // staggered arrival
      co_await r.acquire();
      out.push_back(id);
      co_await e.delay(1.0);
      r.release();
    }(eng, res, order, i));
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Resource, BusyIntegralTracksUtilization) {
  Engine eng;
  Resource res(eng, 1);
  eng.spawn([](Engine& e, Resource& r) -> Task<void> {
    co_await r.use(3.0);
    co_await e.delay(1.0);  // idle gap
    co_await r.use(2.0);
  }(eng, res));
  eng.run();
  EXPECT_DOUBLE_EQ(res.busyIntegral(eng.now()), 5.0);
  EXPECT_DOUBLE_EQ(eng.now(), 6.0);
}

TEST(Resource, ReleaseUnderflowThrows) {
  Engine eng;
  Resource res(eng, 1);
  EXPECT_THROW(res.release(), std::logic_error);
}

TEST(Channel, PopWaitsForPush) {
  Engine eng;
  Channel<int> chan(eng);
  std::vector<int> got;
  eng.spawn([](Channel<int>& c, std::vector<int>& out) -> Task<void> {
    out.push_back(co_await c.pop());
    out.push_back(co_await c.pop());
  }(chan, got));
  eng.spawn([](Engine& e, Channel<int>& c) -> Task<void> {
    co_await e.delay(1.0);
    c.push(10);
    co_await e.delay(1.0);
    c.push(20);
  }(eng, chan));
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{10, 20}));
}

TEST(Channel, BufferedPopsImmediately) {
  Engine eng;
  Channel<std::string> chan(eng);
  chan.push("a");
  chan.push("b");
  std::vector<std::string> got;
  eng.spawn([](Channel<std::string>& c,
               std::vector<std::string>& out) -> Task<void> {
    out.push_back(co_await c.pop());
    out.push_back(co_await c.pop());
  }(chan, got));
  eng.run();
  EXPECT_EQ(got, (std::vector<std::string>{"a", "b"}));
}

TEST(WhenAll, WaitsForSlowestChild) {
  Engine eng;
  double doneAt = -1;
  eng.spawn([](Engine& e, double& doneAt) -> Task<void> {
    std::vector<Task<void>> kids;
    for (int i = 1; i <= 3; ++i) {
      kids.push_back([](Engine& e, double dt) -> Task<void> {
        co_await e.delay(dt);
      }(e, static_cast<double>(i)));
    }
    co_await whenAll(e, std::move(kids));
    doneAt = e.now();
  }(eng, doneAt));
  eng.run();
  EXPECT_DOUBLE_EQ(doneAt, 3.0);
}

TEST(WhenAll, EmptySetCompletesImmediately) {
  Engine eng;
  bool done = false;
  eng.spawn([](Engine& e, bool& d) -> Task<void> {
    co_await whenAll(e, {});
    d = true;
  }(eng, done));
  eng.run();
  EXPECT_TRUE(done);
}

TEST(WhenAll, ChildExceptionRethrownAfterAllFinish) {
  Engine eng;
  bool caught = false;
  double caughtAt = 0;
  eng.spawn([](Engine& e, bool& caught, double& at) -> Task<void> {
    std::vector<Task<void>> kids;
    kids.push_back([](Engine& e) -> Task<void> {
      co_await e.delay(1.0);
      throw std::runtime_error("child failed");
    }(e));
    kids.push_back([](Engine& e) -> Task<void> {
      co_await e.delay(5.0);
    }(e));
    try {
      co_await whenAll(e, std::move(kids));
    } catch (const std::runtime_error&) {
      caught = true;
      at = e.now();
    }
  }(eng, caught, caughtAt));
  eng.run();
  EXPECT_TRUE(caught);
  EXPECT_DOUBLE_EQ(caughtAt, 5.0);  // waits for all children first
}

// ----------------------------------------------------- scheduler identity
//
// The calendar-queue scheduler must dispatch in exactly the (when, seq)
// order the binary heap did.  Two lines of defense: a golden digest of a
// mixed workload captured against the pre-calendar engine, and a
// randomized lockstep equivalence test against the reference HeapQueue.

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnvBytes(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

struct Step {
  int id;
  double at;
};

Task<void> digestWorker(Engine& eng, Resource& res, std::vector<Step>& log,
                        int id) {
  log.push_back({id, eng.now()});
  co_await eng.delay(0.001 * (id % 7));
  log.push_back({id, eng.now()});
  co_await res.use(0.01 + 0.001 * (id % 3));
  log.push_back({id, eng.now()});
  for (int i = 0; i < 3; ++i) {
    co_await eng.delay(eng.rng().uniform() * 0.1);
    log.push_back({id, eng.now()});
  }
  co_await eng.yield();
  log.push_back({id, eng.now()});
}

std::uint64_t runDigestWorkload(std::uint64_t* orderDigest = nullptr) {
  Engine eng(42);
  Resource res(eng, 2);
  std::vector<Step> log;
  for (int id = 0; id < 64; ++id) {
    if (id % 5 == 0) {
      eng.spawnAt(0.002 * id, digestWorker(eng, res, log, id));
    } else {
      eng.spawn(digestWorker(eng, res, log, id));
    }
  }
  eng.run();
  if (orderDigest != nullptr) *orderDigest = eng.orderDigest();
  std::uint64_t h = kFnvOffset;
  for (const Step& s : log) {
    h = fnvBytes(h, &s.id, sizeof s.id);
    h = fnvBytes(h, &s.at, sizeof s.at);
  }
  const auto dispatched = eng.eventsDispatched();
  h = fnvBytes(h, &dispatched, sizeof dispatched);
  return h;
}

TEST(EngineDigest, GoldenWorkloadDigestIsStable) {
  // Captured from the binary-heap scheduler before the calendar queue
  // landed: 64 interleaved processes contending on a resource, with
  // spawns, delays, rng-driven timing, and yields.  Any scheduler change
  // that reorders a single dispatch, or perturbs one timestamp, moves
  // this digest.
  EXPECT_EQ(runDigestWorkload(), 0xb0c9eff8d3deb1a8ULL);
}

TEST(EngineDigest, OrderDigestIdenticalAcrossRuns) {
  std::uint64_t first = 0;
  std::uint64_t second = 0;
  const std::uint64_t stepsA = runDigestWorkload(&first);
  const std::uint64_t stepsB = runDigestWorkload(&second);
  EXPECT_EQ(stepsA, stepsB);
  EXPECT_EQ(first, second);
  EXPECT_NE(first, kFnvOffset);  // the digest actually accumulated
}

TEST(ReadyQueue, CalendarMatchesHeapOnRandomWorkloads) {
  util::Rng rng(1234);
  detail::CalendarQueue calendar;
  detail::HeapQueue heap;
  Time now = 0.0;
  std::uint64_t seq = 0;

  const auto pushBoth = [&](Time when) {
    const detail::QueuedEvent ev{when, seq++, {}, false};
    calendar.push(ev, now);
    heap.push(ev, now);
  };

  for (int i = 0; i < 32; ++i) pushBoth(rng.uniform() * 2.0);

  int pops = 0;
  while (!heap.empty()) {
    ASSERT_EQ(calendar.size(), heap.size());
    const detail::QueuedEvent* top = calendar.peek(now);
    ASSERT_NE(top, nullptr);
    const detail::QueuedEvent expected = heap.pop(now);
    EXPECT_EQ(top->when, expected.when);
    EXPECT_EQ(top->seq, expected.seq);
    const detail::QueuedEvent got = calendar.pop(now);
    ASSERT_EQ(got.when, expected.when);
    ASSERT_EQ(got.seq, expected.seq);
    now = got.when;
    ++pops;
    if (pops >= 20000) continue;  // stop feeding, drain what's left
    const double r = rng.uniform();
    if (r < 0.2) {
      pushBoth(now);  // FIFO lane
    } else if (r < 0.7) {
      pushBoth(now + rng.uniform() * 0.01);  // clustered near future
    } else if (r < 0.95) {
      pushBoth(now + rng.uniform());  // medium horizon
    } else {
      pushBoth(now + 50.0 + rng.uniform() * 100.0);  // far-future jump
    }
    if (r < 0.1) {
      // Burst of ties at one timestamp: seq must break them.
      const Time t = now + rng.uniform() * 0.05;
      for (int k = 0; k < 5; ++k) pushBoth(t);
    }
  }
  EXPECT_GE(pops, 20000);
  EXPECT_TRUE(calendar.empty());
  EXPECT_EQ(calendar.peek(now), nullptr);
}

TEST(ReadyQueue, TieWithTheSoleRunEventKeepsSeqOrder) {
  // Seq 0 goes straight into the run (the queue is empty) and seq 1 ties
  // it.  Seq 1 must not wait in a bucket or the overflow heap: once the
  // clock reaches 1.0, seq 3, pushed then into the FIFO lane, must still
  // come after it.
  detail::CalendarQueue calendar;
  Time now = 0.0;
  calendar.push(detail::QueuedEvent{1.0, 0, {}, false}, now);
  calendar.push(detail::QueuedEvent{1.0, 1, {}, false}, now);
  calendar.push(detail::QueuedEvent{2.0, 2, {}, false}, now);
  ASSERT_EQ(calendar.peek(now)->seq, 0u);
  now = calendar.pop(now).when;
  calendar.push(detail::QueuedEvent{now, 3, {}, false}, now);
  std::vector<std::uint64_t> order;
  while (!calendar.empty()) {
    calendar.peek(now);
    const detail::QueuedEvent ev = calendar.pop(now);
    now = ev.when;
    order.push_back(ev.seq);
  }
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 3, 2}));
}

// ------------------------------------------------------------ join model

TEST(WhenAll, ChildThatNeverSuspendsCompletes) {
  Engine eng;
  std::vector<int> log;
  eng.spawn([](Engine& e, std::vector<int>& log) -> Task<void> {
    std::vector<Task<void>> kids;
    for (int i = 0; i < 3; ++i) {
      kids.push_back([](std::vector<int>& log, int id) -> Task<void> {
        log.push_back(id);  // no co_await: done inside the start event
        co_return;
      }(log, i));
    }
    co_await whenAll(e, std::move(kids));
    log.push_back(99);
  }(eng, log));
  eng.run();
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 99}));
  EXPECT_DOUBLE_EQ(eng.now(), 0.0);
  // The spawn and the join's one start event; with nothing else queued
  // the parent resumes inside the start event, with no wake event.
  EXPECT_EQ(eng.eventsDispatched(), 2u);
}

TEST(WhenAll, SingleChild) {
  Engine eng;
  double doneAt = -1;
  eng.spawn([](Engine& e, double& doneAt) -> Task<void> {
    std::vector<Task<void>> kids;
    kids.push_back([](Engine& e) -> Task<void> { co_await e.delay(1.5); }(e));
    co_await whenAll(e, std::move(kids));
    doneAt = e.now();
  }(eng, doneAt));
  eng.run();
  EXPECT_DOUBLE_EQ(doneAt, 1.5);
  // Spawn, start, the child's delay — and no wake event.
  EXPECT_EQ(eng.eventsDispatched(), 3u);
}

TEST(WhenAll, ChildrenAreNotDetachedProcesses) {
  Engine eng;
  int liveInChild = -1;
  eng.spawn([](Engine& e, int& live) -> Task<void> {
    std::vector<Task<void>> kids;
    for (int i = 0; i < 4; ++i) {
      kids.push_back([](Engine& e, int& live) -> Task<void> {
        co_await e.delay(1.0);
        live = e.liveProcesses();
      }(e, live));
    }
    co_await whenAll(e, std::move(kids));
  }(eng, liveInChild));
  eng.run();
  EXPECT_EQ(liveInChild, 1);  // only the spawned parent
  EXPECT_EQ(eng.liveProcesses(), 0);
}

/// Counts destructions: a frame holding one has been destroyed exactly
/// when its count has gone up.
struct DestroyProbe {
  int* destroyed;
  explicit DestroyProbe(int* d) : destroyed(d) {}
  DestroyProbe(const DestroyProbe&) = delete;
  DestroyProbe& operator=(const DestroyProbe&) = delete;
  ~DestroyProbe() { ++*destroyed; }
};

TEST(WhenAll, ExceptionWaitsForSlowestChildAndFreesFrames) {
  const std::uint64_t liveBefore = FrameArena::local().stats().liveFrames;
  Engine eng;
  int destroyed = 0;
  int destroyedAtCatch = -1;
  double caughtAt = -1;
  std::string what;
  eng.spawn([](Engine& e, int& destroyed, int& atCatch, double& at,
               std::string& what) -> Task<void> {
    std::vector<Task<void>> kids;
    kids.push_back([](Engine& e, int* d) -> Task<void> {
      DestroyProbe probe(d);
      co_await e.delay(1.0);
      throw std::runtime_error("first");
    }(e, &destroyed));
    kids.push_back([](Engine& e, int* d) -> Task<void> {
      DestroyProbe probe(d);
      co_await e.delay(2.0);
      throw std::runtime_error("second");
    }(e, &destroyed));
    kids.push_back([](Engine& e, int* d) -> Task<void> {
      DestroyProbe probe(d);
      co_await e.delay(7.0);
    }(e, &destroyed));
    try {
      co_await whenAll(e, std::move(kids));
    } catch (const std::runtime_error& err) {
      at = e.now();
      atCatch = destroyed;
      what = err.what();
    }
  }(eng, destroyed, destroyedAtCatch, caughtAt, what));
  eng.run();
  EXPECT_DOUBLE_EQ(caughtAt, 7.0);  // rethrown only after the slowest child
  EXPECT_EQ(what, "first");         // the first failure in completion order
  EXPECT_EQ(destroyedAtCatch, 3);   // every child's body had unwound
  EXPECT_EQ(FrameArena::local().stats().liveFrames, liveBefore);
}

TEST(WhenAll, DeadlockedChildRaisesDeadlockError) {
  Engine eng;
  Event never(eng);
  eng.spawn([](Engine& e, Event& ev) -> Task<void> {
    std::vector<Task<void>> kids;
    kids.push_back([](Engine& e) -> Task<void> { co_await e.delay(1.0); }(e));
    kids.push_back([](Event& ev) -> Task<void> { co_await ev.wait(); }(ev));
    co_await whenAll(e, std::move(kids));
  }(eng, never));
  EXPECT_THROW(eng.run(), DeadlockError);
  // Release the blocked child so the join and its parent finish and free
  // their frames.
  never.set();
  eng.run();
  EXPECT_EQ(eng.liveProcesses(), 0);
}

// The join against the implementation it replaced: one detached spawn per
// child behind a wrapper frame, and a Latch whose count-down schedules the
// wake event.  Randomized fan-out trees with nested joins contend on one
// resource, with many zero delays and exact-binary delays so that a lot of
// events tie on time; every step's (id, time) must match, in order.

Task<void> referenceChild(Task<void> child, Latch& latch,
                          std::exception_ptr& firstError) {
  try {
    co_await std::move(child);
  } catch (...) {
    if (!firstError) firstError = std::current_exception();
  }
  latch.countDown();
}

Task<void> referenceWhenAll(Engine& engine, std::vector<Task<void>> tasks) {
  Latch latch(engine, tasks.size());
  std::exception_ptr firstError{};
  for (auto& task : tasks) {
    engine.spawn(referenceChild(std::move(task), latch, firstError));
  }
  tasks.clear();
  co_await latch.wait();
  if (firstError) std::rethrow_exception(firstError);
}

using JoinFn = Task<void> (*)(Engine&, std::vector<Task<void>>);

struct FanOutNode {
  int id = 0;
  std::vector<Time> delays;  ///< before the hold; many are zero
  Time hold = -1;            ///< resource hold (may be 0); < 0 = none
  std::vector<FanOutNode> kids;
  Time after = 0;  ///< delay after the join
};

/// 0, 0.25, 0.5 or 0.75: zero half the time, and sums stay exact.
Time tieProneDelay(util::Rng& rng) {
  return rng.below(2) == 0 ? 0.0 : 0.25 * static_cast<double>(rng.below(4));
}

FanOutNode makeFanOutTree(util::Rng& rng, int depth, int& nextId) {
  FanOutNode node;
  node.id = nextId++;
  for (std::uint64_t i = rng.below(3); i > 0; --i) {
    node.delays.push_back(tieProneDelay(rng));
  }
  if (rng.below(3) != 0) node.hold = tieProneDelay(rng);
  if (depth > 0 && rng.below(3) != 0) {
    for (std::uint64_t k = 1 + rng.below(4); k > 0; --k) {
      node.kids.push_back(makeFanOutTree(rng, depth - 1, nextId));
    }
    node.after = tieProneDelay(rng);
  }
  return node;
}

Task<void> runFanOutNode(Engine& eng, Resource& res, JoinFn join,
                         const FanOutNode& node, std::vector<Step>& log) {
  log.push_back({node.id, eng.now()});
  for (Time d : node.delays) {
    co_await eng.delay(d);
    log.push_back({node.id, eng.now()});
  }
  if (node.hold >= 0) {
    co_await res.acquire();
    log.push_back({node.id, eng.now()});
    co_await eng.delay(node.hold);
    res.release();
    log.push_back({node.id, eng.now()});
  }
  if (!node.kids.empty()) {
    std::vector<Task<void>> kids;
    for (const FanOutNode& kid : node.kids) {
      kids.push_back(runFanOutNode(eng, res, join, kid, log));
    }
    co_await join(eng, std::move(kids));
    log.push_back({node.id, eng.now()});
    co_await eng.delay(node.after);
    log.push_back({node.id, eng.now()});
  }
}

struct FanOutRun {
  std::vector<Step> log;
  std::uint64_t events = 0;
};

FanOutRun runFanOutForest(const std::vector<FanOutNode>& roots,
                          JoinFn join) {
  Engine eng;
  Resource res(eng, 1);
  FanOutRun run;
  for (std::size_t i = 0; i < roots.size(); ++i) {
    const Time at = 0.25 * static_cast<double>(i % 3);
    eng.spawnAt(at, runFanOutNode(eng, res, join, roots[i], run.log));
  }
  eng.run();
  run.events = eng.eventsDispatched();
  return run;
}

TEST(WhenAll, MatchesSpawnAndLatchReferenceOnRandomContention) {
  util::Rng rng(2024);
  std::uint64_t joinEvents = 0;
  std::uint64_t referenceEvents = 0;
  for (int trial = 0; trial < 200; ++trial) {
    int nextId = 0;
    std::vector<FanOutNode> roots;
    for (std::uint64_t r = 1 + rng.below(4); r > 0; --r) {
      roots.push_back(makeFanOutTree(rng, 3, nextId));
    }
    const FanOutRun got = runFanOutForest(roots, &whenAll);
    const FanOutRun want = runFanOutForest(roots, &referenceWhenAll);
    ASSERT_EQ(got.log.size(), want.log.size()) << "trial " << trial;
    for (std::size_t i = 0; i < want.log.size(); ++i) {
      ASSERT_EQ(got.log[i].id, want.log[i].id)
          << "trial " << trial << " step " << i;
      ASSERT_EQ(got.log[i].at, want.log[i].at)
          << "trial " << trial << " step " << i;
    }
    ASSERT_LE(got.events, want.events) << "trial " << trial;
    joinEvents += got.events;
    referenceEvents += want.events;
  }
  EXPECT_LT(joinEvents, referenceEvents);  // the join does save events
}

// ------------------------------------------------ schedule-time validation

TEST(Engine, RejectsNonFiniteDelay) {
  Engine eng;
  EXPECT_THROW(eng.delay(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(eng.delay(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

TEST(Engine, RejectsNonFiniteSpawnTime) {
  Engine eng;
  std::vector<int> log;
  EXPECT_THROW(
      eng.spawnAt(std::numeric_limits<double>::quiet_NaN(),
                  appendAfter(eng, 0.0, log, 1)),
      std::invalid_argument);
  EXPECT_THROW(
      eng.spawnAt(std::numeric_limits<double>::infinity(),
                  appendAfter(eng, 0.0, log, 2)),
      std::invalid_argument);
  // A rejected spawn leaks nothing and schedules nothing.
  eng.run();
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(eng.eventsDispatched(), 0u);
}

TEST(Engine, PastSpawnTimeClampsToNow) {
  Engine eng;
  std::vector<double> at;
  eng.spawn([](Engine& e, std::vector<double>& out) -> Task<void> {
    co_await e.delay(3.0);
    out.push_back(e.now());
  }(eng, at));
  eng.run();
  ASSERT_EQ(at.size(), 1u);
  // now() is 3.0; a spawn dated in the past must run at now, not rewind.
  eng.spawnAt(-5.0, [](Engine& e, std::vector<double>& out) -> Task<void> {
    out.push_back(e.now());
    co_return;
  }(eng, at));
  eng.run();
  ASSERT_EQ(at.size(), 2u);
  EXPECT_DOUBLE_EQ(at[1], 3.0);
}

// ----------------------------------------------------------- frame arena

TEST(FrameArena, ReusesFramesAcrossSpawns) {
  auto& arena = FrameArena::local();
  const auto before = arena.stats();
  Engine eng;
  for (int round = 0; round < 50; ++round) {
    std::vector<int> log;
    eng.spawn(appendAfter(eng, 0.001, log, round));
    eng.run();
    ASSERT_EQ(log.size(), 1u);
  }
  const auto after = arena.stats();
  // Identical frames round after round: at most a few fresh carves, the
  // rest served from the free list.
  EXPECT_GT(after.reuses, before.reuses + 40);
  EXPECT_GT(after.freeFrames, 0u);
}

TEST(FrameArena, OversizedFramesFallBackToHeap) {
  auto& arena = FrameArena::local();
  const auto before = arena.stats();
  Engine eng;
  int out = 0;
  eng.spawn([](Engine& e, int& result) -> Task<void> {
    // A live-across-suspend buffer larger than the largest pooled class
    // forces this frame onto the global-heap fallback path.
    char big[FrameArena::kMaxPooled * 2] = {};
    big[0] = 1;
    co_await e.delay(0.001);
    big[sizeof big - 1] = 2;
    result = big[0] + big[sizeof big - 1];
  }(eng, out));
  eng.run();
  EXPECT_EQ(out, 3);
  const auto after = arena.stats();
  EXPECT_GT(after.fallbacks, before.fallbacks);
}

TEST(FrameArena, TrimReleasesFullyDeadSlabs) {
  // A private arena (not local()): the thread-local one hosts abandoned
  // daemon frames from other tests, which pin their slabs by design.
  FrameArena arena;
  std::vector<void*> frames;
  // Two slabs' worth of 64-byte frames.
  for (int i = 0; i < 1500; ++i) frames.push_back(arena.allocate(64));
  ASSERT_GE(arena.slabCount(), 2u);
  const auto grown = arena.stats();
  EXPECT_EQ(grown.liveFrames, 1500u);

  // Everything still live: trim must be a no-op.
  EXPECT_EQ(arena.trim(), 0u);
  EXPECT_EQ(arena.stats().slabBytes, grown.slabBytes);

  for (void* p : frames) arena.deallocate(p, 64);
  frames.clear();
  const std::size_t released = arena.trim();
  EXPECT_GE(released, 2u * 64u * 1024u);
  EXPECT_EQ(arena.slabCount(), 0u);
  const auto after = arena.stats();
  EXPECT_EQ(after.slabBytes, 0u);
  EXPECT_EQ(after.freeFrames, 0u);
  EXPECT_EQ(after.liveFrames, 0u);
  EXPECT_GT(after.slabsReleased, 0u);

  // The arena must keep working after a full trim.
  void* p = arena.allocate(64);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(arena.stats().slabBytes, 64u * 1024u);
  arena.deallocate(p, 64);
}

TEST(FrameArena, TrimKeepsSlabsHostingLiveFrames) {
  FrameArena arena;
  std::vector<void*> frames;
  for (int i = 0; i < 1500; ++i) frames.push_back(arena.allocate(64));
  ASSERT_GE(arena.slabCount(), 2u);
  const std::size_t slabsBefore = arena.slabCount();

  // Keep the very first frame (first slab) live, free the rest: every
  // other slab dies, the pinned one survives with its free list intact.
  void* pinned = frames.front();
  for (std::size_t i = 1; i < frames.size(); ++i) {
    arena.deallocate(frames[i], 64);
  }
  const std::size_t released = arena.trim();
  EXPECT_GE(released, 64u * 1024u);
  EXPECT_EQ(arena.slabCount(), 1u);
  EXPECT_LT(arena.slabCount(), slabsBefore);
  EXPECT_EQ(arena.stats().liveFrames, 1u);
  EXPECT_GT(arena.stats().freeFrames, 0u);

  // Recycled frames of the surviving slab are still servable.
  const auto reusesBefore = arena.stats().reuses;
  void* again = arena.allocate(64);
  EXPECT_EQ(arena.stats().reuses, reusesBefore + 1);
  arena.deallocate(again, 64);
  arena.deallocate(pinned, 64);
  EXPECT_GE(arena.trim(), 64u * 1024u);
  EXPECT_EQ(arena.slabCount(), 0u);
}

TEST(FrameArena, TrimPreservesActiveBumpSlabWithLiveFrames) {
  FrameArena arena;
  void* keep = arena.allocate(64);
  const auto carved = arena.stats();
  // The bump slab hosts a live frame: trim must not touch it, and the
  // next allocation must keep carving the same slab.
  EXPECT_EQ(arena.trim(), 0u);
  void* next = arena.allocate(64);
  EXPECT_EQ(arena.stats().slabBytes, carved.slabBytes);
  EXPECT_EQ(arena.stats().slabCarves, carved.slabCarves + 1);
  arena.deallocate(next, 64);
  arena.deallocate(keep, 64);
}

TEST(FrameArena, GrowsSlabsUnderConcurrentLoad) {
  auto& arena = FrameArena::local();
  const auto before = arena.stats();
  Engine eng;
  std::vector<int> log;
  // Thousands of frames live at once: the arena must carve several slabs
  // rather than recycle, and release everything back to the free lists.
  for (int id = 0; id < 4000; ++id) {
    eng.spawn(appendAfter(eng, 0.001 * (1 + id % 97), log, id));
  }
  eng.run();
  EXPECT_EQ(log.size(), 4000u);
  const auto after = arena.stats();
  EXPECT_GT(after.slabBytes, before.slabBytes);
  EXPECT_GE(after.slabBytes - before.slabBytes, 2u * 64u * 1024u);
  EXPECT_GT(after.freeFrames, before.freeFrames);
}

}  // namespace
}  // namespace iop::sim
