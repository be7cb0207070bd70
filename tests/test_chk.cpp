// The chk model checker's own test suite: memory-model litmus programs
// (the model must allow exactly the weak behaviors it claims to), the
// vector-clock race checker, scheduler determinism/replay, and the core
// lock-free primitives (StealDeque, PriorityPool, AsyncWorklist +
// QuiescenceDetector, MailboxMatrix) instantiated over chk::ModelSync and
// driven under exhaustive and PCT schedules. The seeded memory-order
// MUTANTS — proving each annotated ordering is load-bearing — live in
// tests/test_chk_mutants.cpp.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chk/chk.h"
#include "core/run_options.h"
#include "core/termination.h"
#include "par/async_worklist.h"
#include "par/mailbox.h"
#include "par/priority_pool.h"
#include "par/steal_deque.h"

namespace kcore {
namespace {

using ModelDeque = par::StealDeque<int, chk::ModelSync>;
using ModelPool = par::PriorityPool<std::uint32_t, chk::ModelSync>;
using ModelWorklist = par::BasicAsyncWorklist<chk::ModelSync>;

chk::Options exhaustive(unsigned preemptions = 2,
                        std::uint64_t max_execs = 200000) {
  chk::Options opt;
  opt.mode = chk::Mode::kExhaustive;
  opt.preemption_bound = preemptions;
  opt.max_executions = max_execs;
  opt.max_steps = 2000;
  return opt;
}

chk::Options pct(std::uint64_t executions, std::uint64_t seed = 1) {
  chk::Options opt;
  opt.mode = chk::Mode::kPct;
  opt.executions = executions;
  opt.seed = seed;
  opt.max_steps = 4000;
  return opt;
}

// ---------------------------------------------------------------------------
// Memory-model litmus programs
// ---------------------------------------------------------------------------

chk::Program message_passing(std::memory_order store_order,
                             std::memory_order load_order) {
  auto data = std::make_shared<chk::ModelAtomic<int>>(0, "mp.data");
  auto flag = std::make_shared<chk::ModelAtomic<int>>(0, "mp.flag");
  chk::Program p;
  p.threads.push_back([=] {
    data->store(42, std::memory_order_relaxed, "mp.write_data");
    flag->store(1, store_order, "mp.write_flag");
  });
  p.threads.push_back([=] {
    if (flag->load(load_order, "mp.read_flag") == 1) {
      chk::require(
          data->load(std::memory_order_relaxed, "mp.read_data") == 42,
          "message passing: acquire reader saw the flag but stale data");
    }
  });
  return p;
}

TEST(ChkLitmus, MessagePassingReleaseAcquireHolds) {
  const chk::Outcome out = chk::explore(exhaustive(3), [] {
    return message_passing(std::memory_order_release,
                           std::memory_order_acquire);
  });
  EXPECT_FALSE(out.violation) << out.what;
  EXPECT_TRUE(out.exhausted) << "state space unexpectedly large: "
                             << out.executions << " executions";
}

TEST(ChkLitmus, MessagePassingRelaxedIsBroken) {
  // The model must be WEAK enough to produce the stale read once the
  // release/acquire pair is gone — otherwise the mutation harness proves
  // nothing.
  const chk::Outcome out = chk::explore(exhaustive(3), [] {
    return message_passing(std::memory_order_relaxed,
                           std::memory_order_relaxed);
  });
  EXPECT_TRUE(out.violation);
  EXPECT_NE(out.what.find("stale data"), std::string::npos) << out.what;
}

TEST(ChkLitmus, ReleaseFenceUpgradesRelaxedStore) {
  // Variant the deque's push path depends on: relaxed store AFTER a
  // release fence publishes everything before the fence.
  const chk::Outcome out = chk::explore(exhaustive(3), [] {
    auto data = std::make_shared<chk::ModelAtomic<int>>(0, "fence.data");
    auto flag = std::make_shared<chk::ModelAtomic<int>>(0, "fence.flag");
    chk::Program p;
    p.threads.push_back([=] {
      data->store(7, std::memory_order_relaxed, "fence.write_data");
      chk::ModelSync::fence(std::memory_order_release, "fence.release");
      flag->store(1, std::memory_order_relaxed, "fence.write_flag");
    });
    p.threads.push_back([=] {
      if (flag->load(std::memory_order_acquire, "fence.read_flag") == 1) {
        chk::require(
            data->load(std::memory_order_relaxed, "fence.read_data") == 7,
            "release fence: reader saw flag but stale data");
      }
    });
    return p;
  });
  EXPECT_FALSE(out.violation) << out.what;
  EXPECT_TRUE(out.exhausted);
}

chk::Program store_buffering(std::memory_order order,
                             std::shared_ptr<std::array<int, 2>> results) {
  auto x = std::make_shared<chk::ModelAtomic<int>>(0, "sb.x");
  auto y = std::make_shared<chk::ModelAtomic<int>>(0, "sb.y");
  chk::Program p;
  p.threads.push_back([=] {
    x->store(1, order, "sb.write_x");
    (*results)[0] = y->load(order, "sb.read_y");
  });
  p.threads.push_back([=] {
    y->store(1, order, "sb.write_y");
    (*results)[1] = x->load(order, "sb.read_x");
  });
  p.finally = [=] {
    chk::require((*results)[0] == 1 || (*results)[1] == 1,
                 "store buffering: both threads read 0 (SC violated)");
  };
  return p;
}

TEST(ChkLitmus, StoreBufferingSeqCstExcludesBothZero) {
  // Dekker's core: under seq_cst at least one thread must see the other's
  // store. This is what the deque's pop/steal seq_cst fences buy.
  const chk::Outcome out = chk::explore(exhaustive(3), [] {
    return store_buffering(std::memory_order_seq_cst,
                           std::make_shared<std::array<int, 2>>());
  });
  EXPECT_FALSE(out.violation) << out.what;
  EXPECT_TRUE(out.exhausted);
}

TEST(ChkLitmus, StoreBufferingAcquireReleaseAllowsBothZero) {
  // Release/acquire is NOT enough for Dekker — the model must reach the
  // r0 == r1 == 0 execution (each load reading the coherence-allowed
  // initial store), or the seq_cst mutants in the deque would be
  // undetectable.
  const chk::Outcome out = chk::explore(exhaustive(3), [] {
    auto results = std::make_shared<std::array<int, 2>>();
    auto x = std::make_shared<chk::ModelAtomic<int>>(0, "sb.x");
    auto y = std::make_shared<chk::ModelAtomic<int>>(0, "sb.y");
    chk::Program p;
    p.threads.push_back([=] {
      x->store(1, std::memory_order_release, "sb.write_x");
      (*results)[0] = y->load(std::memory_order_acquire, "sb.read_y");
    });
    p.threads.push_back([=] {
      y->store(1, std::memory_order_release, "sb.write_y");
      (*results)[1] = x->load(std::memory_order_acquire, "sb.read_x");
    });
    p.finally = [=] {
      chk::require((*results)[0] == 1 || (*results)[1] == 1,
                   "store buffering: both threads read 0 (SC violated)");
    };
    return p;
  });
  EXPECT_TRUE(out.violation) << "model failed to produce the store-buffering "
                                "weak behavior in "
                             << out.executions << " executions";
}

// ---------------------------------------------------------------------------
// Plain-access race checker
// ---------------------------------------------------------------------------

TEST(ChkRace, UnorderedPlainWritesAreFlaggedOnEverySchedule) {
  // The values are "benign" (both write the same guard) — the vector-clock
  // checker must flag the missing ordering anyway.
  const chk::Outcome out = chk::explore(exhaustive(1, 100), [] {
    auto guard = std::make_shared<chk::ModelSync::PlainGuard>();
    chk::Program p;
    p.threads.push_back([=] { guard->note_write("race.t1"); });
    p.threads.push_back([=] { guard->note_write("race.t2"); });
    return p;
  });
  EXPECT_TRUE(out.violation);
  EXPECT_NE(out.what.find("data race"), std::string::npos) << out.what;
}

TEST(ChkRace, ReleaseAcquireOrderedPlainAccessesAreClean) {
  const chk::Outcome out = chk::explore(exhaustive(3), [] {
    auto guard = std::make_shared<chk::ModelSync::PlainGuard>();
    auto flag = std::make_shared<chk::ModelAtomic<int>>(0, "race.flag");
    chk::Program p;
    p.threads.push_back([=] {
      guard->note_write("race.writer");
      flag->store(1, std::memory_order_release, "race.publish");
    });
    p.threads.push_back([=] {
      if (flag->load(std::memory_order_acquire, "race.observe") == 1) {
        guard->note_read("race.reader");
      }
    });
    return p;
  });
  EXPECT_FALSE(out.violation) << out.what;
  EXPECT_TRUE(out.exhausted);
}

// ---------------------------------------------------------------------------
// Scheduler: determinism, replay, mutation-hit accounting
// ---------------------------------------------------------------------------

TEST(ChkSched, SameSeedSameOutcome) {
  const auto make = [] {
    return message_passing(std::memory_order_relaxed,
                           std::memory_order_relaxed);
  };
  const chk::Outcome first = chk::explore(pct(300, 7), make);
  const chk::Outcome second = chk::explore(pct(300, 7), make);
  ASSERT_TRUE(first.violation);
  EXPECT_EQ(first.replay_seed, second.replay_seed);
  EXPECT_EQ(first.executions, second.executions);
  EXPECT_EQ(first.what, second.what);
}

TEST(ChkSched, ReplaySeedReproducesTheViolationInOneExecution) {
  const auto make = [] {
    return message_passing(std::memory_order_relaxed,
                           std::memory_order_relaxed);
  };
  const chk::Options opt = pct(500, 11);
  const chk::Outcome found = chk::explore(opt, make);
  ASSERT_TRUE(found.violation) << "PCT failed to find the relaxed-MP bug";
  const chk::Outcome replayed = chk::replay(opt, found.replay_seed, make);
  ASSERT_TRUE(replayed.violation);
  EXPECT_EQ(replayed.executions, 1u);
  EXPECT_EQ(replayed.what, found.what);
}

TEST(ChkSched, UnmatchedMutationSiteReportsZeroHits) {
  chk::Options opt = exhaustive(1, 50);
  opt.mutations.push_back(chk::Mutation::weaken("no.such.site"));
  opt.mutations.push_back(chk::Mutation::weaken("mp.write_flag"));
  const chk::Outcome out = chk::explore(opt, [] {
    return message_passing(std::memory_order_release,
                           std::memory_order_acquire);
  });
  EXPECT_EQ(out.mutation_hits.at("no.such.site"), 0u);
  EXPECT_GT(out.mutation_hits.at("mp.write_flag"), 0u);
}

// ---------------------------------------------------------------------------
// StealDeque under the model
// ---------------------------------------------------------------------------

struct HandoutLog {
  std::array<int, 8> count{};  // per value; indices 1..n used
  int invalid = 0;
  void take(int value, int max_value) {
    if (value < 1 || value > max_value) {
      ++invalid;
    } else {
      ++count[static_cast<unsigned>(value)];
    }
  }
};

TEST(ChkDeque, ExactlyOnceUnderOwnerPopVsThiefExhaustive) {
  const chk::Outcome out = chk::explore(exhaustive(2), [] {
    auto dq = std::make_shared<ModelDeque>(4);
    auto log = std::make_shared<HandoutLog>();
    chk::Program p;
    p.threads.push_back([=] {  // owner
      dq->push(1);
      dq->push(2);
      int v = 0;
      if (dq->pop(v)) log->take(v, 2);
      if (dq->pop(v)) log->take(v, 2);
    });
    p.threads.push_back([=] {  // thief
      int v = 0;
      if (dq->steal(v)) log->take(v, 2);
      if (dq->steal(v)) log->take(v, 2);
    });
    p.finally = [=] {
      chk::require(log->invalid == 0, "deque handed out a garbage value");
      chk::require(log->count[1] == 1 && log->count[2] == 1,
                   "deque lost or duplicated an element");
    };
    return p;
  });
  EXPECT_FALSE(out.violation) << out.what << "\n" << out.trace;
  EXPECT_TRUE(out.exhausted) << out.executions << " executions";
}

TEST(ChkDeque, ExactlyOnceUnderTwoThievesPct) {
  const chk::Outcome out = chk::explore(pct(300, 3), [] {
    auto dq = std::make_shared<ModelDeque>(4);
    auto log = std::make_shared<HandoutLog>();
    chk::Program p;
    p.threads.push_back([=] {  // owner
      dq->push(1);
      dq->push(2);
      dq->push(3);
      int v = 0;
      if (dq->pop(v)) log->take(v, 3);
      if (dq->pop(v)) log->take(v, 3);
    });
    for (int thief = 0; thief < 2; ++thief) {
      p.threads.push_back([=] {
        int v = 0;
        if (dq->steal(v)) log->take(v, 3);
        if (dq->steal(v)) log->take(v, 3);
      });
    }
    p.finally = [=] {
      chk::require(log->invalid == 0, "deque handed out a garbage value");
      for (int value = 1; value <= 3; ++value) {
        chk::require(log->count[static_cast<unsigned>(value)] <= 1,
                     "deque handed an element out twice");
      }
    };
    return p;
  });
  EXPECT_FALSE(out.violation) << out.what << "\n" << out.trace;
}

TEST(ChkDeque, GrowUnderFireKeepsElementsVisible) {
  // capacity_hint 2 forces a grow on the third push while a thief races.
  const chk::Outcome out = chk::explore(exhaustive(2), [] {
    auto dq = std::make_shared<ModelDeque>(2);
    auto log = std::make_shared<HandoutLog>();
    chk::Program p;
    p.threads.push_back([=] {  // owner: third push grows the ring
      dq->push(1);
      dq->push(2);
      dq->push(3);
    });
    p.threads.push_back([=] {  // thief
      int v = 0;
      if (dq->steal(v)) log->take(v, 3);
      if (dq->steal(v)) log->take(v, 3);
    });
    p.finally = [=] {
      chk::require(log->invalid == 0,
                   "thief read garbage from a grown ring");
      int drained = 0;
      int v = 0;
      while (dq->pop(v)) {
        log->take(v, 3);
        ++drained;
        chk::require(drained <= 3, "deque duplicated elements after grow");
      }
      for (int value = 1; value <= 3; ++value) {
        chk::require(log->count[static_cast<unsigned>(value)] == 1,
                     "deque lost or duplicated an element across grow");
      }
    };
    return p;
  });
  EXPECT_FALSE(out.violation) << out.what << "\n" << out.trace;
  EXPECT_TRUE(out.exhausted) << out.executions << " executions";
}

// ---------------------------------------------------------------------------
// PriorityPool under the model
// ---------------------------------------------------------------------------

TEST(ChkPool, ExactlyOnceAndHintSupersetUnderSteal) {
  const chk::Outcome out = chk::explore(exhaustive(2), [] {
    auto pool = std::make_shared<ModelPool>(2, 4);
    auto log = std::make_shared<HandoutLog>();
    chk::Program p;
    p.threads.push_back([=] {  // lane-0 owner
      std::uint64_t probes = 0;
      pool->push(1, 0, 0);
      pool->push(2, 3, 0);
      std::uint32_t v = 0;
      if (pool->pop_own(v, 0, probes)) log->take(static_cast<int>(v), 2);
      if (pool->pop_own(v, 0, probes)) log->take(static_cast<int>(v), 2);
      // Superset invariant, owner side: after pop_own retired a bucket's
      // bit, the owner's own lane must really be empty there. The hint
      // may over-approximate (stale set bits) but never under-approximate.
      const std::uint64_t hint = pool->hint_bitmap(0);
      for (std::uint32_t b = 0; b < 4; ++b) {
        if ((hint & (1ULL << b)) == 0) {
          chk::require(pool->bucket_size_estimate(0, b) <= 0,
                       "hint bit clear while the bucket holds work");
        }
      }
    });
    p.threads.push_back([=] {  // lane-1 worker: dry own lane, steals
      std::uint64_t probes = 0;
      std::uint32_t v = 0;
      if (pool->steal(v, 1, probes)) log->take(static_cast<int>(v), 2);
    });
    p.finally = [=] {
      chk::require(log->invalid == 0, "pool handed out a garbage value");
      for (int value = 1; value <= 2; ++value) {
        chk::require(log->count[static_cast<unsigned>(value)] <= 1,
                     "pool handed an element out twice");
      }
      // Global superset check at quiescence.
      for (unsigned w = 0; w < 2; ++w) {
        const std::uint64_t hint = pool->hint_bitmap(w);
        for (std::uint32_t b = 0; b < 4; ++b) {
          if ((hint & (1ULL << b)) == 0) {
            chk::require(pool->bucket_size_estimate(w, b) <= 0,
                         "hint bit clear while the bucket holds work");
          }
        }
      }
    };
    return p;
  });
  EXPECT_FALSE(out.violation) << out.what << "\n" << out.trace;
  EXPECT_TRUE(out.exhausted) << out.executions << " executions";
}

// ---------------------------------------------------------------------------
// AsyncWorklist + QuiescenceDetector under the model
// ---------------------------------------------------------------------------

// A two-item relaxation chain: worker threads drain the worklist with the
// engine's own acquire/begin/process/finish discipline. Item 0's relaxation
// writes x and wakes item 1; item 1's relaxation requires it SEES that
// write — the no-lost-wakeup/visibility contract of the in-queue-flag
// handshake. The detector must only confirm when everything retired.
chk::Program worklist_chain(std::shared_ptr<std::array<int, 2>> begins) {
  auto wl = std::make_shared<ModelWorklist>(2, 2, core::SchedPolicy::kLifo);
  auto x = std::make_shared<chk::ModelAtomic<int>>(0, "chain.x");
  wl->seed(0, 0);
  begins->fill(0);
  chk::Program p;
  const auto worker = [=](unsigned w) {
    return [=] {
      while (!wl->done()) {
        const std::uint32_t u = wl->acquire(w);
        if (u == ModelWorklist::kNone) {
          if (wl->try_confirm()) break;
          chk::yield();
          continue;
        }
        wl->begin(u);
        ++(*begins)[u];
        if (u == 0) {
          x->store(1, std::memory_order_relaxed, "chain.write_x");
          wl->schedule(1, w);
        } else {
          chk::require(
              x->load(std::memory_order_relaxed, "chain.read_x") == 1,
              "lost-wakeup handshake: item 1 ran without seeing x=1");
        }
        wl->finish();
      }
    };
  };
  p.threads.push_back(worker(0));
  p.threads.push_back(worker(1));
  p.finally = [=] {
    chk::require(wl->done(), "workers exited without confirmed quiescence");
    chk::require(wl->detector().outstanding() == 0,
                 "detector confirmed with outstanding work");
    chk::require((*begins)[0] == 1 && (*begins)[1] == 1,
                 "exactly-once: begins != enqueues");
    chk::require(wl->total_enqueues() == 2,
                 "flag protocol enqueued an item twice");
  };
  return p;
}

TEST(ChkWorklist, ChainHandshakeAndQuiescenceExhaustive) {
  chk::Options opt = exhaustive(2);
  opt.max_steps = 600;  // generous: worker loops re-poll after yields
  const chk::Outcome out =
      chk::explore(opt, [] { return worklist_chain(
                       std::make_shared<std::array<int, 2>>()); });
  EXPECT_FALSE(out.violation) << out.what << "\n" << out.trace;
}

TEST(ChkWorklist, ChainHandshakeAndQuiescencePct) {
  const chk::Outcome out =
      chk::explore(pct(300, 5), [] { return worklist_chain(
                       std::make_shared<std::array<int, 2>>()); });
  EXPECT_FALSE(out.violation) << out.what << "\n" << out.trace;
  EXPECT_GT(out.executions - out.bounded, 0u)
      << "every execution hit the step bound — raise max_steps";
}

// ---------------------------------------------------------------------------
// MailboxMatrix round protocol under the model
// ---------------------------------------------------------------------------

TEST(ChkMailbox, BarrieredRoundsAreRaceFree) {
  // Correct use: writers touch round r, readers drain round r^1, and a
  // modeled release/acquire barrier separates rounds.
  const chk::Outcome out = chk::explore(exhaustive(2), [] {
    auto mb = std::make_shared<par::MailboxMatrix<int, chk::ModelSync>>(2);
    auto arrived = std::make_shared<chk::ModelAtomic<int>>(0, "mb.arrived");
    chk::Program p;
    p.threads.push_back([=] {
      mb->write_side(0, 1, 0).push_back(7);
      arrived->fetch_add(1, std::memory_order_acq_rel, "mb.barrier.enter");
    });
    p.threads.push_back([=] {
      mb->write_side(1, 0, 0).push_back(9);
      arrived->fetch_add(1, std::memory_order_acq_rel, "mb.barrier.enter");
      while (arrived->load(std::memory_order_acquire, "mb.barrier.spin") <
             2) {
        chk::yield();
      }
      // Past the barrier: round 1 reads drain what round 0 wrote.
      (void)mb->read_side(1, 0, 1);
      (void)mb->read_side(0, 1, 1);
    });
    return p;
  });
  EXPECT_FALSE(out.violation) << out.what << "\n" << out.trace;
}

TEST(ChkMailbox, SameRoundWriteVsDrainIsARace) {
  // Broken protocol: a drain of the SAME round a writer is filling. The
  // race checker must flag it even though the vector contents could look
  // fine on this schedule.
  const chk::Outcome out = chk::explore(exhaustive(2, 5000), [] {
    auto mb = std::make_shared<par::MailboxMatrix<int, chk::ModelSync>>(2);
    chk::Program p;
    p.threads.push_back([=] { mb->write_side(0, 1, 0).push_back(7); });
    p.threads.push_back([=] { (void)mb->read_side(0, 1, 1); });
    return p;
  });
  EXPECT_TRUE(out.violation);
  EXPECT_NE(out.what.find("data race"), std::string::npos) << out.what;
}

}  // namespace
}  // namespace kcore
