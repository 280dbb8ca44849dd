/**
 * @file
 * Invariant checks over shared structures and public state, which
 * CmpSystem registers with its InvariantRegistry (see
 * invariant_registry.h for the machinery and DESIGN.md §6 for the
 * catalogue). Each returns true when its invariant holds, else fills
 * @p why:
 *  - DecoupledSet: segment accounting vs. budget, valid-prefix LRU
 *    stack order, no duplicate valid line addresses, full 8-segment
 *    charge for uncompressed caches, clean victim-tag state;
 *  - EventQueue: no event pending in the past;
 *  - PriorityLink: byte conservation (requested = delivered +
 *    in-flight + queued);
 *  - BandwidthResource: busy-time/byte-count consistency;
 *  - AdaptivePrefetchController: its event counts match its cache's;
 *  - Compressor: lossless compress -> decompress round-trip (run on
 *    every L2 fill when L2Params::verify_fill_roundtrip is set).
 * Checks over private state are const members of their component
 * (L1Cache::auditMshrLimit, CoreModel::auditDoneHorizon, ...).
 */

#ifndef CMPSIM_AUDIT_AUDITS_H
#define CMPSIM_AUDIT_AUDITS_H

#include <span>
#include <string>

#include "src/cache/decoupled_set.h"
#include "src/common/line_data.h"
#include "src/compression/compressor.h"
#include "src/mem/priority_link.h"
#include "src/prefetch/adaptive_controller.h"
#include "src/sim/bandwidth_resource.h"
#include "src/sim/event_queue.h"

namespace cmpsim {

/** printf-style helper for audit failure details. */
std::string auditFormat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * One-shot structural check of @p set (see DecoupledSet's class
 * comment for the audited invariants).
 *
 * @param require_full_charge every valid line must be charged exactly
 *        kSegmentsPerLine segments (uncompressed caches: L1s and the
 *        uncompressed L2 configuration)
 * @param why receives the offending entry/counter state on failure
 * @return true when every invariant holds
 */
bool auditDecoupledSet(const DecoupledSet &set, bool require_full_charge,
                       std::string &why);

/**
 * Lossless round-trip check: compress @p line with @p c, decompress,
 * and compare byte-for-byte; also validates the reported segment
 * count. Used on every L2 fill in audit builds and by the audit tests.
 */
bool auditCompressorRoundTrip(const Compressor &c, const LineData &line,
                              std::string &why);

/** auditDecoupledSet() over @p sets; @p why names the failing one. */
bool auditDecoupledSets(std::span<const DecoupledSet> sets,
                        bool require_full_charge, std::string &why);

/** Nothing is pending at a cycle before @p eq's now(). */
bool auditNoPastEvents(const EventQueue &eq, std::string &why);

/** Bytes requested on @p link equal bytes delivered + in flight +
 *  queued (with the pending-at-reset baseline). */
bool auditByteConservation(const PriorityLink &link, std::string &why);

/** @p bw's busy cycles match its byte count at its rate, up to FP
 *  rounding. */
bool auditBusyBytes(const BandwidthResource &bw, std::string &why);

/** @p ctl counted exactly the @p useful, @p useless and @p harmful
 *  prefetch events its cache counted. */
bool auditControllerCounts(const AdaptivePrefetchController &ctl,
                           std::uint64_t useful, std::uint64_t useless,
                           std::uint64_t harmful, std::string &why);

} // namespace cmpsim

#endif // CMPSIM_AUDIT_AUDITS_H
