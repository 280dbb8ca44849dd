/**
 * @file
 * Serializable continuation tags for checkpoint/restore (DESIGN.md
 * §13).
 *
 * The simulator's pending work — heap events, MSHR waiters, link
 * messages, DRAM requests — is held as std::function closures, which
 * cannot be written to disk. Instead, every production site that
 * creates such a continuation *also* attaches a Tag: a small,
 * immutable, serializable description (a frame kind plus up to four
 * integer payload words, chained for composite closures) from which
 * the checkpoint codec can rebuild an equivalent closure against the
 * restored component graph.
 *
 * Tags are passive metadata: they are consulted only by the codec, so
 * arming them cannot change simulated behaviour. When checkpointing
 * is not armed (no CMPSIM_CKPT / CMPSIM_RESTORE), the inline tag()
 * returns an empty Tag after one relaxed load, so the hot path pays no
 * call and only a null shared_ptr pass.
 */

#ifndef CMPSIM_CKPT_CONT_TAG_H
#define CMPSIM_CKPT_CONT_TAG_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

namespace cmpsim::ckpt {

/**
 * Continuation frame kinds. Each names one closure shape in the
 * simulator; the payload words (a..d) carry the closure's captures
 * and `inner` carries a nested continuation (e.g. the Done a link
 * message will invoke on delivery). Values are part of the on-disk
 * checkpoint format — append new kinds, never renumber.
 */
enum FrameKind : std::uint16_t
{
    kNoop = 1,           ///< Done(Cycle): do nothing
    kCoreIFetch = 2,     ///< a=cpu: ifetch miss completion
    kCoreLoad = 3,       ///< a=cpu b=rob slot c=rob id: load completion
    kCoreStoreWake = 4,  ///< a=cpu: store completion wake
    kCoreChainStore = 5, ///< a=cpu: chained-store completion
    kCoreChainLoad = 6,  ///< a=cpu b=rob slot c=rob id: chained load
    kL1Fill = 7,         ///< a=l1 id (cpu*2+side) b=line: L2 response
    kDoneAt = 8,         ///< event: a=cycle, inner=Done to run there
    kL2Lookup = 9,       ///< event: a=cpu b=line c=start d=flags
    kL2Fill = 10,        ///< a=line: memory fetch -> L2 fill
    kMemReqArrived = 11, ///< a=line b=when c=class: request at memory
    kMemSendData = 12,   ///< a=when b=class c=segments: data response
    kMemDataDelivered = 13, ///< a=when: data back at the L2
    kMemDramWrite = 14,  ///< a=line b=segments: writeback into DRAM
    kLinkPump = 15,      ///< event: PriorityLink::pump()
    kLinkInflight = 16,  ///< event: a=bytes b=done cycle, inner=Deliver
    kDramPump = 17,      ///< event: a=channel: DramBackend::pump(ci)
    kDramWriteDone = 18, ///< event: a=channel: write completion
    kDramReadSvc = 19,   ///< event: a=channel: read service accounting
};

struct Frame;

/** A (possibly chained) continuation description; empty = no tag. */
using Tag = std::shared_ptr<const Frame>;

/** One continuation frame: kind + payload + nested continuation. */
struct Frame
{
    std::uint16_t kind = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::uint64_t c = 0;
    std::uint64_t d = 0;
    Tag inner;
};

namespace detail {

/** Process-wide arming flag. Re-evaluated from the env at every
 *  CmpSystem construction; the env knobs are process-global, so
 *  concurrent runner threads always store the same value and relaxed
 *  ordering suffices. */
extern std::atomic<bool> g_armed;

/** Allocate a frame (the armed half of tag()). */
Tag makeTag(std::uint16_t kind, std::uint64_t a, std::uint64_t b,
            std::uint64_t c, std::uint64_t d, Tag inner);

} // namespace detail

/** True while checkpoint tagging is armed for this process. */
inline bool
armed()
{
    return detail::g_armed.load(std::memory_order_relaxed);
}

/** Arm/disarm tagging (CmpSystem construction, from the env knobs). */
void setArmed(bool on);

/**
 * Build a tag when armed; empty tag otherwise. The null return on the
 * unarmed path keeps tag creation out of normal runs entirely.
 */
inline Tag
tag(std::uint16_t kind, std::uint64_t a = 0, std::uint64_t b = 0,
    std::uint64_t c = 0, std::uint64_t d = 0, Tag inner = {})
{
    if (!armed())
        return {};
    return detail::makeTag(kind, a, b, c, d, std::move(inner));
}

/**
 * Record (thread-locally) that a CmpSystem on this thread was restored
 * from a checkpoint; consumed by the parallel runner to report the
 * point as Restored rather than freshly run.
 */
void noteRestored();

/** Return and clear this thread's restored-from-checkpoint flag. */
bool consumeRestoredFlag();

} // namespace cmpsim::ckpt

#endif // CMPSIM_CKPT_CONT_TAG_H
