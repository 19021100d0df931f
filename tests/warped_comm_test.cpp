// The coalescing comm fabric (src/warped/channel.hpp): the lock-free
// BatchMailbox must deliver every message exactly once in push order
// under producer contention and honor its probably_empty staleness
// contract; the HoldingHeap's lazy-deletion min-tracking must agree with
// a reference multiset through arbitrary push/pop interleavings; the
// SendCoalescer must obey its flush rules (size, age, disabled mode,
// explicit flush) and stamp delivery deadlines at flush time; and —
// the property the whole design hangs on — the Mattern GVT accounting
// must treat a buffered batch of n messages as exactly n transients:
// counted at add time, blocking round completion until drained, with
// buffered minima holding the sender's report down.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "util/rng.hpp"
#include "warped/channel.hpp"
#include "warped/gvt.hpp"

namespace pls::warped {
namespace {

InFlight make_msg(SimTime recv_time, std::uint64_t seq,
                  std::uint64_t epoch = 0) {
  InFlight f;
  f.seq = seq;
  f.epoch = epoch;
  f.event.recv_time = recv_time;
  f.event.value = seq * 0x9e3779b97f4a7c15ULL;
  return f;
}

std::unique_ptr<Batch> make_batch(std::uint64_t first_seq, std::size_t n) {
  auto b = std::make_unique<Batch>();
  for (std::size_t i = 0; i < n; ++i) {
    b->msgs.push_back(make_msg(100 + first_seq + i, first_seq + i));
  }
  return b;
}

// ---- BatchMailbox ----------------------------------------------------------

TEST(BatchMailbox, DrainPreservesContentAndPushOrder) {
  BatchMailbox box;
  box.push(make_batch(0, 3));
  box.push(make_batch(3, 1));
  box.push(make_batch(4, 5));

  std::vector<InFlight> out;
  EXPECT_EQ(box.drain(out), 9u);
  ASSERT_EQ(out.size(), 9u);
  // Batches come out in push order, messages in batch order.
  for (std::uint64_t i = 0; i < 9; ++i) {
    EXPECT_EQ(out[i].seq, i);
    EXPECT_EQ(out[i].event.recv_time, 100 + i);
    EXPECT_EQ(out[i].event.value, i * 0x9e3779b97f4a7c15ULL);
  }
  EXPECT_TRUE(box.probably_empty());
  EXPECT_EQ(box.drain(out), 0u);
}

TEST(BatchMailbox, DrainAppendsWithoutDisturbingExistingContent) {
  BatchMailbox box;
  box.push(make_batch(10, 2));
  std::vector<InFlight> out;
  out.push_back(make_msg(1, 99));
  EXPECT_EQ(box.drain(out), 2u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].seq, 99u);
  EXPECT_EQ(out[1].seq, 10u);
  EXPECT_EQ(out[2].seq, 11u);
}

TEST(BatchMailbox, ProbablyEmptyStalenessContract) {
  BatchMailbox box;
  EXPECT_TRUE(box.probably_empty());
  // Once push() has returned, every probe must see "not empty" until the
  // content is drained — the direction that would deadlock the receive
  // loop if it ever went stale.
  box.push(make_batch(0, 4));
  EXPECT_FALSE(box.probably_empty());
  EXPECT_FALSE(box.probably_empty());
  std::vector<InFlight> out;
  EXPECT_EQ(box.drain(out), 4u);
  EXPECT_TRUE(box.probably_empty());
}

TEST(BatchMailbox, DestructorFreesUndrainedChain) {
  // Leak-checked by ASan/LSan in the sanitizer CI jobs.
  BatchMailbox box;
  box.push(make_batch(0, 8));
  box.push(make_batch(8, 8));
}

TEST(BatchMailbox, MpscStressDeliversEveryMessageExactlyOnce) {
  constexpr std::uint32_t kProducers = 4;
  constexpr std::uint64_t kBatchesPerProducer = 500;
  constexpr std::uint64_t kMsgsPerBatch = 8;
  constexpr std::uint64_t kTotal =
      kProducers * kBatchesPerProducer * kMsgsPerBatch;

  BatchMailbox box;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&box, p] {
      for (std::uint64_t i = 0; i < kBatchesPerProducer; ++i) {
        // Globally unique seqs: producer p owns [p*N, (p+1)*N).
        const std::uint64_t first =
            (p * kBatchesPerProducer + i) * kMsgsPerBatch;
        box.push(make_batch(first, kMsgsPerBatch));
      }
    });
  }

  // Consume concurrently with production (single consumer, per contract).
  std::vector<InFlight> got;
  got.reserve(kTotal);
  while (got.size() < kTotal) {
    if (box.drain(got) == 0) std::this_thread::yield();
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(box.drain(got), 0u);
  EXPECT_TRUE(box.probably_empty());

  ASSERT_EQ(got.size(), kTotal);
  std::vector<bool> seen(kTotal, false);
  for (const InFlight& m : got) {
    ASSERT_LT(m.seq, kTotal);
    EXPECT_FALSE(seen[m.seq]) << "duplicate seq " << m.seq;
    seen[m.seq] = true;
    EXPECT_EQ(m.event.recv_time, 100 + m.seq);
  }
  // Per-producer batch order survives even though batches interleave.
  std::vector<std::uint64_t> last(kProducers, 0);
  for (const InFlight& m : got) {
    const std::uint64_t p = m.seq / (kBatchesPerProducer * kMsgsPerBatch);
    EXPECT_GE(m.seq + 1, last[p]) << "producer " << p << " reordered";
    last[p] = m.seq + 1;
  }
}

// ---- HoldingHeap -----------------------------------------------------------

TEST(HoldingHeap, PropertyAgainstReferenceMultiset) {
  // Random push/pop interleavings vs a reference: pops must come out in
  // (deliver_at_ns, seq) order and min_recv_time() must always equal the
  // minimum recv_time over the live contents.
  HoldingHeap heap;
  std::multiset<std::tuple<std::uint64_t, std::uint64_t, SimTime>> ref;
  std::multiset<SimTime> live_recv;
  util::Rng rng(1234);
  std::uint64_t seq = 0;

  for (int step = 0; step < 20000; ++step) {
    const bool push = heap.empty() || (rng.next() % 3) != 0;
    if (push) {
      InFlight f = make_msg(rng.next() % 512, seq++);
      f.deliver_at_ns = rng.next() % 1024;
      ref.emplace(f.deliver_at_ns, f.seq, f.event.recv_time);
      live_recv.insert(f.event.recv_time);
      heap.push(std::move(f));
    } else {
      const auto expect = *ref.begin();
      ref.erase(ref.begin());
      const InFlight got = heap.pop();
      EXPECT_EQ(got.deliver_at_ns, std::get<0>(expect));
      EXPECT_EQ(got.seq, std::get<1>(expect));
      EXPECT_EQ(got.event.recv_time, std::get<2>(expect));
      live_recv.erase(live_recv.find(got.event.recv_time));
    }
    EXPECT_EQ(heap.size(), ref.size());
    const SimTime want =
        live_recv.empty() ? kEndOfTime : *live_recv.begin();
    EXPECT_EQ(heap.min_recv_time(), want) << "step " << step;
    if (!ref.empty()) {
      EXPECT_EQ(heap.top().deliver_at_ns, std::get<0>(*ref.begin()));
      EXPECT_EQ(heap.next_deadline_ns(), std::get<0>(*ref.begin()));
    } else {
      EXPECT_EQ(heap.next_deadline_ns(), 0u);
    }
  }
}

// ---- SendCoalescer ---------------------------------------------------------

TEST(SendCoalescer, BurstCoalescesIntoOneBatchPerDestination) {
  InProcChannel ch(3);
  SendCoalescer co;
  co.configure(&ch, CoalesceConfig{});

  for (std::uint64_t i = 0; i < 5; ++i) co.add(1, make_msg(50 + i, i), 0, 0);
  for (std::uint64_t i = 5; i < 8; ++i) co.add(2, make_msg(50 + i, i), 0, 0);
  EXPECT_EQ(co.buffered(), 8u);
  EXPECT_EQ(co.stats().batches_flushed, 0u);
  EXPECT_TRUE(ch.probably_empty(1));

  EXPECT_EQ(co.flush_all(1000, 0), 8u);
  EXPECT_EQ(co.buffered(), 0u);
  EXPECT_EQ(co.stats().batches_flushed, 2u);
  EXPECT_EQ(co.stats().msgs_flushed, 8u);
  EXPECT_EQ(co.stats().max_batch_msgs, 5u);

  std::vector<InFlight> out;
  EXPECT_EQ(ch.drain(1, out), 5u);
  EXPECT_EQ(ch.drain(2, out), 3u);
  EXPECT_TRUE(ch.probably_empty(0));
  // Content and field passthrough (epoch, seq, payload).
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(out[i].seq, i);
    EXPECT_EQ(out[i].event.recv_time, 50 + i);
  }
  // Nothing ever went to destination 0.
  EXPECT_EQ(ch.drain(0, out), 0u);
  EXPECT_EQ(co.flush_all(2000, 0), 0u);  // idle flush is a no-op
}

TEST(SendCoalescer, SizeBoundFlushesFromInsideAdd) {
  InProcChannel ch(2);
  SendCoalescer co;
  CoalesceConfig cfg;
  cfg.max_batch_msgs = 4;
  co.configure(&ch, cfg);

  for (std::uint64_t i = 0; i < 3; ++i) co.add(1, make_msg(10, i), 0, 0);
  EXPECT_EQ(co.stats().batches_flushed, 0u);
  co.add(1, make_msg(10, 3), 0, 0);  // reaches the bound -> flush
  EXPECT_EQ(co.stats().batches_flushed, 1u);
  EXPECT_EQ(co.buffered(), 0u);
  co.add(1, make_msg(10, 4), 0, 0);  // next buffer starts fresh
  EXPECT_EQ(co.buffered(), 1u);

  std::vector<InFlight> out;
  EXPECT_EQ(ch.drain(1, out), 4u);
  EXPECT_EQ(co.stats().max_batch_msgs, 4u);
}

TEST(SendCoalescer, AgeBoundFlushesStaleBuffer) {
  InProcChannel ch(2);
  SendCoalescer co;
  co.configure(&ch, CoalesceConfig{});
  constexpr std::uint64_t kAge = CoalesceConfig::max_batch_age_ns;

  co.add(1, make_msg(10, 0), /*now_ns=*/5000, 0);
  co.add(1, make_msg(10, 1), 5000 + kAge - 100, 0);  // younger: buffered
  EXPECT_EQ(co.stats().batches_flushed, 0u);
  co.add(1, make_msg(10, 2), 5000 + kAge, 0);  // at the age bound: flush
  EXPECT_EQ(co.stats().batches_flushed, 1u);
  EXPECT_EQ(co.stats().msgs_flushed, 3u);
  EXPECT_EQ(co.buffered(), 0u);
}

TEST(SendCoalescer, DisabledModeFlushesEveryAddAsSingletonBatch) {
  InProcChannel ch(2);
  SendCoalescer co;
  CoalesceConfig cfg;
  cfg.enabled = false;
  co.configure(&ch, cfg);

  for (std::uint64_t i = 0; i < 6; ++i) {
    co.add(1, make_msg(10 + i, i), 100 * i, 7);
    EXPECT_EQ(co.buffered(), 0u);
  }
  EXPECT_EQ(co.stats().batches_flushed, 6u);
  EXPECT_EQ(co.stats().msgs_flushed, 6u);
  EXPECT_EQ(co.stats().max_batch_msgs, 1u);
  std::vector<InFlight> out;
  EXPECT_EQ(ch.drain(1, out), 6u);
  // Disabled mode pays the wire per message: deadline = its own add time
  // (== flush time) + latency.
  for (std::uint64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(out[i].deliver_at_ns, 100 * i + 7);
  }
}

TEST(SendCoalescer, DeliveryDeadlineStampedAtFlushTime) {
  // The wire is paid when the batch leaves, not when a message is
  // buffered: all messages of one batch share flush_time + latency, so a
  // coalesced delivery is never earlier than the per-message baseline's.
  InProcChannel ch(2);
  SendCoalescer co;
  co.configure(&ch, CoalesceConfig{});

  co.add(1, make_msg(10, 0), /*now_ns=*/100, /*latency_ns=*/50);
  co.add(1, make_msg(11, 1), /*now_ns=*/200, /*latency_ns=*/50);
  co.flush_dest(1, /*now_ns=*/300, /*latency_ns=*/50);

  std::vector<InFlight> out;
  ASSERT_EQ(ch.drain(1, out), 2u);
  EXPECT_EQ(out[0].deliver_at_ns, 350u);
  EXPECT_EQ(out[1].deliver_at_ns, 350u);
}

TEST(SendCoalescer, MinRecvTimeTracksBufferedAndResetsOnFlush) {
  InProcChannel ch(3);
  SendCoalescer co;
  co.configure(&ch, CoalesceConfig{});

  EXPECT_EQ(co.min_recv_time(), kEndOfTime);
  co.add(1, make_msg(70, 0), 0, 0);
  EXPECT_EQ(co.min_recv_time(), 70u);
  co.add(2, make_msg(40, 1), 0, 0);
  EXPECT_EQ(co.min_recv_time(), 40u);
  co.add(1, make_msg(90, 2), 0, 0);
  EXPECT_EQ(co.min_recv_time(), 40u);

  co.flush_dest(2, 0, 0);  // the 40 leaves; 70 still buffered for dest 1
  EXPECT_EQ(co.min_recv_time(), 70u);
  co.flush_all(0, 0);
  EXPECT_EQ(co.min_recv_time(), kEndOfTime);
}

// ---- GVT transient accounting under coalescing -----------------------------

TEST(GvtCoalescing, BufferedWhiteBlocksRoundUntilDrained) {
  // Node 0 buffers (and counts) a white message for node 1, then both
  // nodes join round 1.  The round must NOT complete while the message
  // sits in the send buffer or in the mailbox; after the drain is
  // counted, it completes and the late-white fold bounds GVT by the
  // message's receive time.
  GvtCoordinator gvt(2);
  InProcChannel ch(2);
  SendCoalescer co;
  co.configure(&ch, CoalesceConfig{});

  gvt.start_round(1);
  // Epoch 0 send, counted at buffer-add time (the accounting boundary).
  gvt.count_send(0, 0);
  co.add(1, make_msg(/*recv_time=*/42, 0, /*epoch=*/0), 0, 0);

  // Sender joins with the coalescer minimum folded in (besides it, it
  // holds nothing).  Receiver joins idle.
  gvt.join(0, 1, std::min<SimTime>(kEndOfTime, co.min_recv_time()));
  gvt.join(1, 1, kEndOfTime);
  ASSERT_TRUE(gvt.all_joined(1));

  // Buffered-but-unflushed: one white sent, none received.
  EXPECT_FALSE(gvt.whites_drained(1));

  // Flushed but not yet drained: still a transient.
  co.flush_all(0, 0);
  EXPECT_FALSE(gvt.whites_drained(1));

  // Drain and count: the round completes.
  std::vector<InFlight> got;
  ASSERT_EQ(ch.drain(1, got), 1u);
  gvt.count_drain(1, got[0].epoch, /*my_round=*/1, got[0].event.recv_time);
  EXPECT_TRUE(gvt.whites_drained(1));

  // Both paths bound the estimate by the message: the sender's report
  // (via min_recv_time) and the receiver's late-white fold.
  EXPECT_EQ(gvt.round_min(), 42u);
}

TEST(GvtCoalescing, BatchOfNCountsAsNTransients) {
  // Property: across random buffering/flushing/draining, the white
  // counters balance exactly when every individually-counted message has
  // been individually drain-counted — batch boundaries are invisible.
  constexpr std::uint32_t kNodes = 3;
  GvtCoordinator gvt(kNodes);
  InProcChannel ch(kNodes);
  std::vector<SendCoalescer> co(kNodes);
  for (auto& c : co) c.configure(&ch, CoalesceConfig{});
  util::Rng rng(99);
  gvt.start_round(1);

  std::uint64_t sent = 0;
  std::uint64_t drained = 0;
  std::vector<InFlight> got;
  for (int step = 0; step < 5000; ++step) {
    const std::uint32_t src = rng.next() % kNodes;
    const std::uint32_t dst = (src + 1 + rng.next() % (kNodes - 1)) % kNodes;
    switch (rng.next() % 4) {
      case 0:
      case 1: {  // buffer one white message (counted at add)
        gvt.count_send(src, 0);
        ++sent;
        co[src].add(dst, make_msg(rng.next() % 1000, sent, 0), 0, 0);
        break;
      }
      case 2:  // flush somebody
        co[src].flush_all(0, 0);
        break;
      case 3: {  // drain an endpoint, counting per message
        got.clear();
        ch.drain(dst, got);
        for (const InFlight& m : got) {
          gvt.count_drain(dst, m.epoch, 1, m.event.recv_time);
          ++drained;
        }
        break;
      }
    }
    // whites_drained tracks exactly the add-counted-minus-drain-counted
    // transient population, never batch counts.
    EXPECT_EQ(gvt.whites_drained(1), sent == drained) << "step " << step;
  }

  // Drain everything down and confirm balance.
  for (auto& c : co) c.flush_all(0, 0);
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    got.clear();
    ch.drain(n, got);
    for (const InFlight& m : got) {
      gvt.count_drain(n, m.epoch, 1, m.event.recv_time);
      ++drained;
    }
  }
  EXPECT_EQ(sent, drained);
  EXPECT_TRUE(gvt.whites_drained(1));
}

}  // namespace
}  // namespace pls::warped
