/**
 * @file
 * Bounded lock-free single-producer/single-consumer ring buffer: the
 * cross-thread backing store for tapes whose endpoints run on
 * different cores of a multicore partition (interp/parallel_runner.h).
 *
 * Actor-to-actor tapes are exactly SPSC channels — one producer actor,
 * one consumer actor — so the ring needs no CAS loops: the producer
 * owns the tail, the consumer owns the head, and each side publishes
 * its monotonic index with a release store the other side acquires.
 * Indexes are monotonic 64-bit logical element positions (never
 * wrapped); the physical slot is `logical & mask`. Head and tail live
 * on separate cache lines, and each side keeps a same-line cached copy
 * of the other side's index so the common case (space/data already
 * known to be available) touches no shared line at all — the FastFlow
 * recipe for streaming graphs on commodity multicores.
 *
 * Block-granular publication supports SAGU-transposed tapes (Section
 * 3.4): a transposed endpoint writes/reads scattered *within* a
 * rate x simdWidth block, so the producer may only publish whole
 * blocks (a partial block has holes) and the consumer may only release
 * whole blocks (it still reads mapped slots behind its own pop
 * cursor). `publishTailExact`/`publishHeadExact` force the residue out
 * at the end of each chunk of iterations.
 *
 * Waits spin briefly then yield (the repo's tests run on small
 * machines, where a worker that spins without yielding starves the
 * very producer it waits on), and panic after a long timeout instead
 * of hanging CI on a mis-scheduled graph. abortWaits() cuts both
 * timeouts short: the watchdog uses it to free workers blocked on a
 * ring whose peer has died, so they panic out promptly and park
 * instead of spinning toward the 120 s limit on a detached thread.
 *
 * Index publication is guarded by always-on invariant checks (define
 * MACROSS_NO_SPSC_CHECKS to compile them out): a published index may
 * never retreat, the producer may never publish past everything the
 * consumer is known to have released plus the capacity, and the
 * consumer may never release past what the producer published. Each
 * violation panics with the ring state instead of silently wrapping
 * onto live data. The checks live on the publication edge — already a
 * release store — not on the per-element fast path, so they cost a
 * couple of predictable branches per publish, nothing per element.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "support/diagnostics.h"
#include "support/fault.h"

namespace macross::interp {

/** Bounded lock-free SPSC ring of raw 32-bit tape lanes. */
class SpscRing {
  public:
    /**
     * @param min_slots  Minimum capacity in elements (rounded up to a
     *                   power of two). At least the tape's serial
     *                   buffer bound plus block slack, which keeps
     *                   workers that fire in serial order deadlock
     *                   free (interp/parallel_runner.h).
     * @param head_block Consumer-side publication granularity
     *                   (rate x simdWidth for a read-transposed tape,
     *                   1 otherwise).
     * @param tail_block Producer-side publication granularity
     *                   (rate x simdWidth for a write-transposed tape,
     *                   1 otherwise).
     */
    explicit SpscRing(std::int64_t min_slots,
                      std::int64_t head_block = 1,
                      std::int64_t tail_block = 1)
        : headBlock_(head_block), tailBlock_(tail_block)
    {
        panicIf(min_slots < 1, "SpscRing of zero capacity");
        panicIf(head_block < 1 || tail_block < 1,
                "SpscRing publication block must be positive");
        std::int64_t cap = 1;
        while (cap < min_slots ||
               cap < 2 * std::max(head_block, tail_block))
            cap <<= 1;
        buf_.assign(static_cast<std::size_t>(cap), 0);
        mask_ = cap - 1;
    }

    SpscRing(const SpscRing&) = delete;
    SpscRing& operator=(const SpscRing&) = delete;

    std::int64_t capacity() const { return mask_ + 1; }

    /** Physical slot for a logical element index (either side). */
    std::uint32_t& slot(std::int64_t logical)
    {
        return buf_[static_cast<std::size_t>(logical & mask_)];
    }
    const std::uint32_t& slot(std::int64_t logical) const
    {
        return buf_[static_cast<std::size_t>(logical & mask_)];
    }

    /** @name Producer side.
     *  @{
     */

    /** Wait until writing @p logical cannot clobber unconsumed data. */
    void waitWritable(std::int64_t logical)
    {
        if (logical - cachedHead_ < capacity())
            return;
        waitSlow([&] {
            cachedHead_ = head_.load(std::memory_order_acquire);
            return logical - cachedHead_ < capacity();
        }, "SPSC producer stalled: consumer stopped draining");
    }

    /**
     * Publish produced elements up to @p wp, floored to the tail
     * block. Slots written before this call are visible to the
     * consumer after it (release/acquire pairing on tail_).
     */
    void publishTail(std::int64_t wp)
    {
        std::int64_t v =
            tailBlock_ == 1 ? wp : wp - wp % tailBlock_;
        if (v != lastTailPub_) {
            checkTail(v);
            lastTailPub_ = v;
            tail_.store(v, std::memory_order_release);
        }
    }

    /** Publish the exact tail, partial block included (barriers). */
    void publishTailExact(std::int64_t wp)
    {
        support::FaultInjector::fire("spsc.publishTailExact", &wp);
        if (wp != lastTailPub_) {
            checkTail(wp);
            lastTailPub_ = wp;
            tail_.store(wp, std::memory_order_release);
        }
    }

    /** Producer's last-refreshed view of the consumer head (a lower
     *  bound on true consumption; occupancy stats only). */
    std::int64_t approxHead() const { return cachedHead_; }
    /** @} */

    /** @name Consumer side.
     *  @{
     */

    /** Wait until the element at @p logical has been published. */
    void waitReadable(std::int64_t logical)
    {
        if (logical < cachedTail_)
            return;
        waitSlow([&] {
            cachedTail_ = tail_.load(std::memory_order_acquire);
            return logical < cachedTail_;
        }, "SPSC consumer stalled: producer stopped publishing");
    }

    /** Elements published and not yet released by the consumer. */
    std::int64_t publishedSize(std::int64_t rp) const
    {
        return tail_.load(std::memory_order_acquire) - rp;
    }

    /** Release consumed elements up to @p rp, floored to the head
     *  block (a transposed reader still reads mapped slots behind its
     *  pop cursor inside the current block). */
    void publishHead(std::int64_t rp)
    {
        std::int64_t v =
            headBlock_ == 1 ? rp : rp - rp % headBlock_;
        if (v != lastHeadPub_) {
            checkHead(v);
            lastHeadPub_ = v;
            head_.store(v, std::memory_order_release);
        }
    }

    /** Release the exact head, partial block included (barriers). */
    void publishHeadExact(std::int64_t rp)
    {
        support::FaultInjector::fire("spsc.publishHeadExact", &rp);
        if (rp != lastHeadPub_) {
            checkHead(rp);
            lastHeadPub_ = rp;
            head_.store(rp, std::memory_order_release);
        }
    }
    /** @} */

    /** @name Shutdown / diagnostics (any thread).
     *  @{
     */

    /**
     * Make every current and future waitWritable/waitReadable panic
     * promptly instead of spinning toward the 120 s timeout. Used by
     * the watchdog to release workers whose peer died; the worker's
     * worker loop catches the panic and parks.
     */
    void abortWaits() { aborted_.store(true, std::memory_order_release); }

    /** @name Raw binding surface (parallel native runtime).
     *
     * Emitted partitioned code operates this ring directly through the
     * ABI v3 `MacrossRing` binding struct: raw pointers at the slot
     * array, the two index atomics, and the aborted flag. The emitted
     * side keeps its own cached peer indexes and last-published values
     * per endpoint (this object's cachedHead_/cachedTail_/lastPub
     * fields stay untouched for a bound endpoint) and follows exactly
     * the publication protocol above. The static_asserts below pin the
     * layout assumptions the emitted __atomic builtins rely on.
     *  @{ */
    std::uint32_t* slotsData() { return buf_.data(); }
    std::int64_t mask() const { return mask_; }
    std::int64_t headBlock() const { return headBlock_; }
    std::int64_t tailBlock() const { return tailBlock_; }
    std::atomic<std::int64_t>* tailAtomic() { return &tail_; }
    std::atomic<std::int64_t>* headAtomic() { return &head_; }
    std::atomic<bool>* abortedFlag() { return &aborted_; }
    /** @} */

    /** Last tail the producer published (diagnostics; racy by nature). */
    std::int64_t publishedTail() const
    {
        return tail_.load(std::memory_order_acquire);
    }
    /** Last head the consumer released (diagnostics; racy by nature). */
    std::int64_t releasedHead() const
    {
        return head_.load(std::memory_order_acquire);
    }
    /** @} */

  private:
    /** Producer publication invariants; panics with ring state. */
    void checkTail(std::int64_t v)
    {
#ifndef MACROSS_NO_SPSC_CHECKS
        panicIf(v < lastTailPub_,
                "SPSC tail retreated: publishing ", v,
                " after ", lastTailPub_, ringState());
        // cachedHead_ is a lower bound on true consumption that
        // waitWritable refreshed before any slot past it was written,
        // so a well-behaved producer can never trip this even when the
        // cache is stale.
        panicIf(v - cachedHead_ > capacity(),
                "SPSC producer overran the consumer: publishing ", v,
                " past released head ", cachedHead_, " + capacity",
                ringState());
#else
        (void)v;
#endif
    }

    /** Consumer release invariants; panics with ring state. */
    void checkHead(std::int64_t v)
    {
#ifndef MACROSS_NO_SPSC_CHECKS
        panicIf(v < lastHeadPub_,
                "SPSC head retreated: releasing ", v, " after ",
                lastHeadPub_, ringState());
        // cachedTail_ was refreshed by waitReadable before any element
        // behind it was read; releasing past it releases data the
        // consumer cannot have consumed.
        panicIf(v > cachedTail_,
                "SPSC consumer released unpublished data: releasing ",
                v, " past published tail ", cachedTail_, ringState());
#else
        (void)v;
#endif
    }

    std::string ringState() const
    {
        std::string s = " (capacity ";
        s += std::to_string(capacity());
        s += ", headBlock ";
        s += std::to_string(headBlock_);
        s += ", tailBlock ";
        s += std::to_string(tailBlock_);
        s += ", tail ";
        s += std::to_string(tail_.load(std::memory_order_relaxed));
        s += ", head ";
        s += std::to_string(head_.load(std::memory_order_relaxed));
        s += ")";
        return s;
    }

    template <typename Ready>
    void waitSlow(Ready ready, const char* who)
    {
        // A short spin catches the racing-neighbor case; after that,
        // yield so a machine with fewer cores than workers still makes
        // progress. The timeout turns a scheduling bug into a
        // diagnosable panic instead of a hung test run.
        for (int spins = 0; spins < 256; ++spins) {
            if (ready())
                return;
        }
        auto start = std::chrono::steady_clock::now();
        for (;;) {
            for (int k = 0; k < 4096; ++k) {
                if (ready())
                    return;
                std::this_thread::yield();
            }
            panicIf(aborted_.load(std::memory_order_acquire),
                    "SPSC wait aborted during shutdown: ", who);
            auto waited = std::chrono::steady_clock::now() - start;
            panicIf(waited > std::chrono::seconds(120), who);
        }
    }

    std::vector<std::uint32_t> buf_;
    std::int64_t mask_ = 0;
    std::int64_t headBlock_ = 1;
    std::int64_t tailBlock_ = 1;

    /** Producer-owned line: published tail + cached consumer head. */
    alignas(64) std::atomic<std::int64_t> tail_{0};
    std::int64_t cachedHead_ = 0;
    std::int64_t lastTailPub_ = 0;
    /** Consumer-owned line: published head + cached producer tail. */
    alignas(64) std::atomic<std::int64_t> head_{0};
    std::int64_t cachedTail_ = 0;
    std::int64_t lastHeadPub_ = 0;

    /** Set once at shutdown; read on the cold wait path only. */
    std::atomic<bool> aborted_{false};
};

// The ABI v3 ring binding hands emitted code raw pointers into the
// atomics above and accesses them with __atomic builtins on plain
// 64-bit (index) / 1-byte (aborted) storage; these pin the layout and
// lock-freedom that makes that sound.
static_assert(sizeof(std::atomic<std::int64_t>) ==
              sizeof(std::int64_t));
static_assert(std::atomic<std::int64_t>::is_always_lock_free);
static_assert(sizeof(std::atomic<bool>) == 1);
static_assert(std::atomic<bool>::is_always_lock_free);

} // namespace macross::interp
